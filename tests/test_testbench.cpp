#include "testbench/harness.hpp"

#include <gtest/gtest.h>

#include "behavioral_oracle.hpp"

namespace retscan {
namespace {

/// Small configuration usable by both tiers: 80-flop FIFO, 8 chains of 10.
ValidationConfig small_config(InjectionMode mode) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = mode;
  config.seed = 99;
  return config;
}

TEST(FastTestbench, NoInjectionMeansNoEvents) {
  FastTestbench tb(small_config(InjectionMode::None));
  const ValidationStats stats = tb.run(500);
  EXPECT_EQ(stats.sequences, 500u);
  EXPECT_EQ(stats.errors_injected, 0u);
  EXPECT_EQ(stats.detected, 0u);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

/// Experiment 1 (Section IV): every single injected error is detected and
/// corrected; the comparator never sees a difference after correction.
TEST(FastTestbench, AllSingleErrorsCorrected) {
  FastTestbench tb(small_config(InjectionMode::SingleRandom));
  const ValidationStats stats = tb.run(5000);
  EXPECT_EQ(stats.sequences_with_errors, 5000u);
  EXPECT_EQ(stats.detected, 5000u);
  EXPECT_EQ(stats.corrected, 5000u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.correction_rate(), 1.0);
}

/// Experiment 2: clustered bursts are always detected but essentially never
/// fully corrected by the Hamming arm.
TEST(FastTestbench, BurstsDetectedNotCorrected) {
  ValidationConfig config = small_config(InjectionMode::MultipleBurst);
  config.burst_size = 4;
  config.burst_spread = 1;
  FastTestbench tb(config);
  const ValidationStats stats = tb.run(2000);
  EXPECT_EQ(stats.sequences_with_errors, 2000u);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  // Tight bursts overwhelm SEC words; correction rate collapses.
  EXPECT_LT(stats.correction_rate(), 0.5);
  EXPECT_GT(stats.flagged_uncorrectable, 0u);
}

TEST(FastTestbench, PaperScaleGeometryRuns) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 32};  // the real 1040-flop case study
  config.chain_count = 80;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 7;
  FastTestbench tb(config);
  EXPECT_EQ(tb.chain_length(), 13u);
  const ValidationStats stats = tb.run(2000);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.correction_rate(), 1.0);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

TEST(FastTestbench, RushModelProducesPlausibleCampaign) {
  ValidationConfig config = small_config(InjectionMode::RushModel);
  config.rush.resistance_ohm = 0.05;  // ringing wake-up
  config.corruption.vulnerability = 0.02;
  FastTestbench tb(config);
  const ValidationStats stats = tb.run(2000);
  EXPECT_GT(stats.errors_injected, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);  // monitoring never misses
  // Some sequences have single upsets (corrected), some have bursts.
  EXPECT_GT(stats.corrected, 0u);
}

TEST(FastTestbench, CrcOnlyDetectsEverythingCorrectsNothing) {
  ValidationConfig config = small_config(InjectionMode::SingleRandom);
  config.kind = CodeKind::CrcDetect;
  FastTestbench tb(config);
  const ValidationStats stats = tb.run(2000);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.comparator_mismatches, 2000u);  // nothing was repaired
  EXPECT_EQ(stats.silent_corruptions, 0u);        // but everything was flagged
}

/// Behavioral statistics pinned before the tier moved to the syndrome
/// domain: every CodeKind x InjectionMode at two seeds, on the paper's
/// 32x32/80-chain geometry (0) and on the 32x2/8-chain one (1). RushModel
/// runs with a ringing wake-up so it injects multi-bit patterns. Each run is
/// split 700 + 300 so state carried across run() calls is covered, and the
/// second seed reaches its testbench through reseed(), the way the campaign
/// runner reuses a warm one.
struct BehavioralGolden {
  int geometry;
  CodeKind kind;
  InjectionMode mode;
  std::uint64_t seed;
  ValidationStats stats;
};

ValidationConfig golden_config(const BehavioralGolden& golden) {
  ValidationConfig config;
  config.fifo = golden.geometry == 0 ? FifoSpec{32, 32} : FifoSpec{32, 2};
  config.chain_count = golden.geometry == 0 ? 80 : 8;
  config.kind = golden.kind;
  config.mode = golden.mode;
  config.seed = golden.seed;
  config.rush.resistance_ohm = 0.05;
  config.corruption.vulnerability = 0.02;
  return config;
}

TEST(FastTestbench, PinnedBehavioralGoldens) {
  const BehavioralGolden goldens[] = {
    {0, CodeKind::CrcDetect, InjectionMode::None, 0x3, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::None, 0x5eed, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::SingleRandom, 0x3, {1000, 1000, 1000, 1000, 0, 1000, 1000, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::SingleRandom, 0x5eed, {1000, 1000, 1000, 1000, 0, 1000, 1000, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::MultipleBurst, 0x3, {1000, 4000, 1000, 1000, 0, 1000, 1000, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::MultipleBurst, 0x5eed, {1000, 4000, 1000, 1000, 0, 1000, 1000, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::RushModel, 0x3, {1000, 10540, 1000, 1000, 0, 1000, 1000, 0}},
    {0, CodeKind::CrcDetect, InjectionMode::RushModel, 0x5eed, {1000, 10449, 1000, 1000, 0, 1000, 1000, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::None, 0x3, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::None, 0x5eed, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::SingleRandom, 0x3, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::SingleRandom, 0x5eed, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::MultipleBurst, 0x3, {1000, 4000, 1000, 1000, 703, 121, 297, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::MultipleBurst, 0x5eed, {1000, 4000, 1000, 1000, 705, 119, 295, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::RushModel, 0x3, {1000, 10540, 1000, 1000, 81, 674, 919, 0}},
    {0, CodeKind::HammingCorrect, InjectionMode::RushModel, 0x5eed, {1000, 10449, 1000, 1000, 82, 681, 918, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::None, 0x3, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::None, 0x5eed, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::SingleRandom, 0x3, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::SingleRandom, 0x5eed, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::MultipleBurst, 0x3, {1000, 4000, 1000, 1000, 703, 297, 297, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::MultipleBurst, 0x5eed, {1000, 4000, 1000, 1000, 705, 295, 295, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::RushModel, 0x3, {1000, 10540, 1000, 1000, 81, 919, 919, 0}},
    {0, CodeKind::HammingPlusCrc, InjectionMode::RushModel, 0x5eed, {1000, 10449, 1000, 1000, 82, 918, 918, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::None, 0x3, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::None, 0x5eed, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::SingleRandom, 0x3, {1000, 1000, 1000, 1000, 0, 1000, 1000, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::SingleRandom, 0x5eed, {1000, 1000, 1000, 1000, 0, 1000, 1000, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::MultipleBurst, 0x3, {1000, 4000, 1000, 1000, 0, 1000, 1000, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::MultipleBurst, 0x5eed, {1000, 4000, 1000, 1000, 0, 1000, 1000, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::RushModel, 0x3, {1000, 784, 547, 547, 0, 547, 547, 0}},
    {1, CodeKind::CrcDetect, InjectionMode::RushModel, 0x5eed, {1000, 779, 533, 533, 0, 533, 533, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::None, 0x3, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::None, 0x5eed, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::SingleRandom, 0x3, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::SingleRandom, 0x5eed, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::MultipleBurst, 0x3, {1000, 4000, 1000, 1000, 998, 1, 2, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::MultipleBurst, 0x5eed, {1000, 4000, 1000, 1000, 625, 250, 375, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::RushModel, 0x3, {1000, 784, 547, 547, 524, 9, 23, 0}},
    {1, CodeKind::HammingCorrect, InjectionMode::RushModel, 0x5eed, {1000, 779, 533, 533, 507, 12, 26, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::None, 0x3, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::None, 0x5eed, {1000, 0, 0, 0, 0, 0, 0, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::SingleRandom, 0x3, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::SingleRandom, 0x5eed, {1000, 1000, 1000, 1000, 1000, 0, 0, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::MultipleBurst, 0x3, {1000, 4000, 1000, 1000, 998, 2, 2, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::MultipleBurst, 0x5eed, {1000, 4000, 1000, 1000, 625, 375, 375, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::RushModel, 0x3, {1000, 784, 547, 547, 524, 23, 23, 0}},
    {1, CodeKind::HammingPlusCrc, InjectionMode::RushModel, 0x5eed, {1000, 779, 533, 533, 507, 26, 26, 0}},
  };
  for (std::size_t i = 0; i < std::size(goldens); i += 2) {
    // Build on a throwaway seed, then reseed, for the second seed's row.
    ValidationConfig first = golden_config(goldens[i]);
    FastTestbench tb(first);
    for (const BehavioralGolden& golden : {goldens[i], goldens[i + 1]}) {
      SCOPED_TRACE(::testing::Message()
                   << "geometry " << golden.geometry << " kind "
                   << static_cast<int>(golden.kind) << " mode "
                   << static_cast<int>(golden.mode) << " seed " << golden.seed);
      if (golden.seed != first.seed) {
        tb.reseed(golden.seed);
      }
      ValidationStats stats = tb.run(700);
      stats += tb.run(300);
      EXPECT_EQ(stats, golden.stats);
    }
  }
}

/// The syndrome-domain testbench against the data-carrying oracle on random
/// geometries: Hamming r = 2..5, chains longer than 64 bits (multi-word data
/// draws), every CodeKind and InjectionMode.
TEST(FastTestbench, MatchesDataPathOracleOnRandomGeometries) {
  Rng pick(0xbe4a710);
  const std::size_t depths[] = {2, 4, 8, 16, 32};
  std::size_t long_chains = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ValidationConfig config;
    config.hamming_r = 2 + static_cast<unsigned>(trial % 4);
    const std::size_t k = HammingCode(config.hamming_r).k();
    config.fifo = FifoSpec{depths[pick.next_below(5)], 1 + pick.next_below(48)};
    const std::size_t flops = config.fifo.flop_count();
    std::vector<std::size_t> counts;
    for (std::size_t w = k; w <= flops; w += k) {
      if (flops % w == 0) {
        counts.push_back(w);
      }
    }
    if (counts.empty()) {
      continue;
    }
    config.chain_count = counts[pick.next_below(counts.size())];
    config.kind = static_cast<CodeKind>(pick.next_below(3));
    config.mode = static_cast<InjectionMode>(pick.next_below(4));
    config.burst_spread = pick.next_below(4);
    config.rush.resistance_ohm = 0.05;
    config.corruption.vulnerability = 0.001 + 0.03 * pick.next_double();
    config.seed = pick.next_u64();
    const std::size_t chain_length = flops / config.chain_count;
    const std::size_t window = 2 * config.burst_spread + 1;
    config.burst_size = 1 + pick.next_below(std::min(config.chain_count, window) *
                                            std::min(chain_length, window));
    long_chains += chain_length > 64 ? 1 : 0;
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": " << config.fifo.depth << "x"
                 << config.fifo.width << ", " << config.chain_count << " chains of "
                 << chain_length << ", r " << config.hamming_r << ", kind "
                 << static_cast<int>(config.kind) << ", mode "
                 << static_cast<int>(config.mode));
    FastTestbench tb(config);
    BehavioralOracle oracle(config);
    EXPECT_EQ(tb.run(150), oracle.run(150));
    EXPECT_EQ(tb.run(50), oracle.run(50));
  }
  EXPECT_GT(long_chains, 0u);
}

/// CRC-16 misses an error pattern exactly when it is a multiple of the
/// generator, about one random pattern in 2^16, so the goldens above almost
/// never reach that case. Here uniform (unclustered) rush upsets, ~6.6 per
/// sequence on a 26-flop fabric of 2 chains, let a CRC-only monitor miss a
/// handful of 100k sequences; the silent corruptions pin every per-(chain,
/// position) CRC contribution, which detected/undetected verdicts on
/// isolated upsets cannot. Values pinned from the data-carrying path.
TEST(FastTestbench, PinnedCrcAliasingGoldens) {
  ValidationConfig config;
  config.fifo = FifoSpec{8, 2};  // 26 flops
  config.chain_count = 2;
  config.hamming_r = 2;  // k = 1: any chain count is a multiple
  config.kind = CodeKind::CrcDetect;
  config.mode = InjectionMode::RushModel;
  config.rush.resistance_ohm = 0.05;
  config.corruption.vulnerability = 0.5;
  config.corruption.cluster_fraction = 0.0;
  config.seed = 5;
  FastTestbench tb(config);
  EXPECT_EQ(tb.run(100000),
            (ValidationStats{100000, 660818, 99961, 99953, 0, 99953, 99961, 8}));
  tb.reseed(6);
  EXPECT_EQ(tb.run(100000),
            (ValidationStats{100000, 661188, 99961, 99951, 0, 99951, 99961, 10}));
}

/// A chain count that is not a multiple of the Hamming k is rejected for
/// every CodeKind, CRC-only included, as the oracle's protectors reject it.
TEST(FastTestbench, RejectsChainCountNotMultipleOfK) {
  for (const CodeKind kind :
       {CodeKind::CrcDetect, CodeKind::HammingCorrect, CodeKind::HammingPlusCrc}) {
    ValidationConfig config = small_config(InjectionMode::SingleRandom);
    config.chain_count = 10;  // 80 flops, 10 chains of 8; k = 4
    config.kind = kind;
    BehavioralOracle oracle(config);
    EXPECT_THROW(oracle.run(1), Error);
    EXPECT_THROW(
        {
          FastTestbench tb(config);
          tb.run(1);
        },
        Error);
  }
}

/// The structural testbench (gate-level FIFO_A + behavioral FIFO_B) agrees
/// with the fast tier on the headline result.
TEST(StructuralTestbench, SingleErrorsAllCorrectedAtGateLevel) {
  StructuralTestbench tb(small_config(InjectionMode::SingleRandom));
  const ValidationStats stats = tb.run(25);
  EXPECT_EQ(stats.sequences_with_errors, 25u);
  EXPECT_EQ(stats.detected, 25u);
  EXPECT_EQ(stats.corrected, 25u);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

TEST(StructuralTestbench, BurstsFlaggedAtGateLevel) {
  ValidationConfig config = small_config(InjectionMode::MultipleBurst);
  config.burst_size = 4;
  config.burst_spread = 1;
  StructuralTestbench tb(config);
  const ValidationStats stats = tb.run(15);
  EXPECT_EQ(stats.detected, 15u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  EXPECT_LT(stats.correction_rate(), 0.75);
}

TEST(StructuralTestbench, CleanCyclesNeverMismatch) {
  StructuralTestbench tb(small_config(InjectionMode::None));
  const ValidationStats stats = tb.run(10);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.detected, 0u);
}

}  // namespace
}  // namespace retscan
