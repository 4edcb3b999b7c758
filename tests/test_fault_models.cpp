// Transition-delay, bridging and sequential fault models (atpg/fault_models):
// hand-computed detections on gate-sized circuits, golden coverage
// regressions on the vendored benchmarks (c17 / s27 + two mid-size designs),
// one table of thread-count and shard-size invariance over all four fault
// models, schedule invariance, and the campaign-kind plumbing (routing,
// validation, spellings).

#include "atpg/fault_models.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "netlist/verilog_reader.hpp"
#include "retscan/campaign.hpp"
#include "retscan/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

std::string circuit_path(const char* file) {
  return std::string(RETSCAN_CIRCUITS_DIR) + "/" + file;
}

BitVec make_pattern(std::initializer_list<int> bits) {
  BitVec pattern(bits.size());
  std::size_t i = 0;
  for (const int bit : bits) {
    pattern.set(i++, bit != 0);
  }
  return pattern;
}

std::string error_message(const std::function<void()>& body) {
  try {
    body();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

// --- transition delay: hand-computed --------------------------------------

constexpr const char* kBufModule =
    "module t(a, y);\n"
    "  input a;\n"
    "  output y;\n"
    "  assign y = a;\n"
    "endmodule\n";

TEST(TransitionDelay, BufferHandComputed) {
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const CombinationalFrame frame(nl);
  const NetId a = nl.find_net("a");
  const std::vector<TransitionFault> faults = {{a, true}, {a, false}};

  // Pattern sequence 0, 1, 0 → pair 0 launches a rising edge on `a`, pair 1
  // a falling edge. STR needs launch 0 + SA0 detected at capture (pair 0);
  // STF needs launch 1 + SA1 detected at capture (pair 1).
  const std::vector<BitVec> patterns = {make_pattern({0}), make_pattern({1}),
                                        make_pattern({0})};
  ThreadPool pool(1);
  const FaultSimResult result = transition_fault_simulate(frame, faults, patterns, pool);
  EXPECT_EQ(result.total_faults, 2u);
  EXPECT_EQ(result.detected, 2u);
  EXPECT_EQ(result.detected_by[0], 0u);  // STR by the 0→1 pair
  EXPECT_EQ(result.detected_by[1], 1u);  // STF by the 1→0 pair
}

TEST(TransitionDelay, ConstantPatternsLaunchNothing) {
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const CombinationalFrame frame(nl);
  const NetId a = nl.find_net("a");
  const std::vector<TransitionFault> faults = {{a, true}, {a, false}};

  // A 1,1 pair would *capture* SA0 on `a`, but the launch value never sets
  // up the rising transition — the launch mask must veto the detection.
  const std::vector<BitVec> ones = {make_pattern({1}), make_pattern({1})};
  ThreadPool pool(1);
  const FaultSimResult none = transition_fault_simulate(frame, faults, ones, pool);
  EXPECT_EQ(none.detected, 0u);
  EXPECT_EQ(none.detected_by[0], FaultSimResult::npos);
  EXPECT_EQ(none.detected_by[1], FaultSimResult::npos);
}

TEST(TransitionDelay, EnumerationCoversStuckAtUniverse) {
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const std::vector<TransitionFault> faults = enumerate_transition_faults(nl);
  EXPECT_EQ(faults.size(), enumerate_faults(nl).size());
  const std::string name = transition_fault_name(nl, {nl.find_net("a"), true});
  EXPECT_NE(name.find("/STR"), std::string::npos);
  EXPECT_NE(name.find('a'), std::string::npos);
}

// --- bridging: hand-computed ----------------------------------------------

constexpr const char* kBridgeModule =
    "module t(a, b, y, z);\n"
    "  input a;\n"
    "  input b;\n"
    "  output y;\n"
    "  output z;\n"
    "  assign y = a & b;\n"
    "  assign z = a | b;\n"
    "endmodule\n";

TEST(Bridging, GateInputPairHandComputed) {
  const Netlist nl = read_verilog_text(kBridgeModule, "bridge.v");
  const CombinationalFrame frame(nl);

  // Both gates share the same (a, b) input pair; after dedup exactly one
  // pair remains, one wired-AND and one wired-OR fault.
  const std::vector<BridgingFault> faults = enumerate_bridging_faults(nl);
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_TRUE(faults[0].wired_and);
  EXPECT_FALSE(faults[1].wired_and);
  EXPECT_EQ(faults[0].a, faults[1].a);
  EXPECT_EQ(faults[0].b, faults[1].b);

  // a=1, b=0 drives the nets apart: wired-AND forces both to 0 (z drops to
  // 0, good 1); wired-OR forces both to 1 (y rises to 1, good 0).
  const std::vector<BitVec> split = {make_pattern({1, 0})};
  ThreadPool pool(1);
  const FaultSimResult detected = bridging_fault_simulate(frame, faults, split, pool);
  EXPECT_EQ(detected.detected, 2u);
  EXPECT_EQ(detected.detected_by[0], 0u);
  EXPECT_EQ(detected.detected_by[1], 0u);

  // Patterns that never drive a and b apart cannot expose either dominance.
  const std::vector<BitVec> agree = {make_pattern({0, 0}), make_pattern({1, 1})};
  const FaultSimResult none = bridging_fault_simulate(frame, faults, agree, pool);
  EXPECT_EQ(none.detected, 0u);

  const std::string name = bridging_fault_name(nl, faults[0]);
  EXPECT_NE(name.find("/AND"), std::string::npos);
}

// --- sequential: hand-checked ---------------------------------------------

constexpr const char* kFlopModule =
    "module t(CK, d, q);\n"
    "  input CK;\n"
    "  input d;\n"
    "  output q;\n"
    "  DFFX1 f0 (.D(d), .CK(CK), .Q(q));\n"
    "endmodule\n";

TEST(Sequential, FlopOutputFaultsDetectedThroughCycles) {
  const Netlist nl = Netlist(read_verilog_text(kFlopModule, "flop.v"));
  const NetId q = nl.find_net("q");
  const std::vector<Fault> faults = {{q, false}, {q, true}};

  // From the all-zero state, SA1 on q differs the moment the good machine
  // holds d=0 (cycle after reset at the latest); SA0 needs a 1 to have been
  // clocked through. The random stimulus hits both within a few cycles.
  ThreadPool pool(1);
  const FaultSimResult result = sequential_fault_simulate(nl, faults, 4, 8, 99, pool);
  EXPECT_EQ(result.total_faults, 2u);
  EXPECT_EQ(result.detected, 2u);
}

TEST(Sequential, CombinationalNetlistDegeneratesToSingleCycle) {
  // No flops: every cycle evaluates the same function of fresh inputs, so
  // the model still runs (degenerate but well-defined) and detects the
  // observable faults.
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const NetId a = nl.find_net("a");
  const std::vector<Fault> faults = {{a, false}, {a, true}};
  ThreadPool pool(1);
  const FaultSimResult result = sequential_fault_simulate(nl, faults, 2, 4, 3, pool);
  EXPECT_EQ(result.detected, 2u);
}

// --- golden regressions on vendored circuits ------------------------------

CampaignResult run_kind(Session& session, CampaignKind kind, Backend backend,
                        unsigned threads = 0, Schedule schedule = Schedule::Auto) {
  CampaignSpec spec;
  spec.kind = kind;
  spec.backend = backend;
  spec.seed = 11;
  spec.threads = threads;
  spec.schedule = schedule;
  spec.atpg.random_patterns = 64;
  if (kind == CampaignKind::SequentialCoverage) {
    spec.sequences = 16;
    spec.cycles = 32;
  }
  return run(session, spec);
}

struct Golden {
  std::size_t detected;
  std::size_t total;
};

void expect_golden(const CampaignResult& result, const Golden& golden) {
  EXPECT_EQ(result.faults.detected, golden.detected);
  EXPECT_EQ(result.faults.total_faults, golden.total);
}

TEST(GoldenCoverage, C17AllCombinationalModels) {
  Session session = Session::from_verilog(circuit_path("c17.v"));
  expect_golden(run_kind(session, CampaignKind::FaultCoverage, Backend::Auto),
                {22, 22});
  // Transition totals come from the *uncollapsed* stem universe (a buffered
  // stem still delays independently), so they can exceed the stuck-at total.
  expect_golden(run_kind(session, CampaignKind::TransitionDelay, Backend::Auto),
                {17, 22});
  expect_golden(run_kind(session, CampaignKind::Bridging, Backend::Auto),
                {10, 12});
}

TEST(GoldenCoverage, S27Sequential) {
  Session session =
      Session::unprotected(Netlist::from_verilog(circuit_path("s27.v")));
  expect_golden(
      run_kind(session, CampaignKind::SequentialCoverage, Backend::Auto),
      {30, 30});
}

TEST(GoldenCoverage, Cmp1908MidSizeCombinational) {
  Session session = Session::from_verilog(circuit_path("cmp1908.v"));
  expect_golden(run_kind(session, CampaignKind::FaultCoverage, Backend::Auto),
                {1383, 1388});
  expect_golden(run_kind(session, CampaignKind::TransitionDelay, Backend::Auto),
                {2229, 2368});
  expect_golden(run_kind(session, CampaignKind::Bridging, Backend::Auto),
                {750, 940});
}

TEST(GoldenCoverage, Ctrl344MidSizeSequential) {
  Session session =
      Session::unprotected(Netlist::from_verilog(circuit_path("ctrl344.v")));
  expect_golden(
      run_kind(session, CampaignKind::SequentialCoverage, Backend::Auto),
      {147, 244});
}

// --- invariance: threads and schedules ------------------------------------

void expect_identical(const CampaignResult& lhs, const CampaignResult& rhs) {
  EXPECT_EQ(lhs.faults.detected, rhs.faults.detected);
  EXPECT_EQ(lhs.faults.total_faults, rhs.faults.total_faults);
  EXPECT_EQ(lhs.faults.detected_by, rhs.faults.detected_by);
}

TEST(Invariance, TransitionDelayThreadsAndSchedule) {
  Session session = Session::from_verilog(circuit_path("cmp1908.v"));
  const CampaignResult serial =
      run_kind(session, CampaignKind::TransitionDelay, Backend::Reference, 1);
  const CampaignResult one =
      run_kind(session, CampaignKind::TransitionDelay, Backend::PackedParallel, 1);
  const CampaignResult eight =
      run_kind(session, CampaignKind::TransitionDelay, Backend::PackedParallel, 8);
  const CampaignResult sweep =
      run_kind(session, CampaignKind::TransitionDelay, Backend::PackedParallel, 8,
               Schedule::Sweep);
  expect_identical(serial, one);
  expect_identical(serial, eight);
  expect_identical(serial, sweep);
}

TEST(Invariance, BridgingThreads) {
  Session session = Session::from_verilog(circuit_path("cmp1908.v"));
  const CampaignResult serial =
      run_kind(session, CampaignKind::Bridging, Backend::Reference, 1);
  const CampaignResult one =
      run_kind(session, CampaignKind::Bridging, Backend::PackedParallel, 1);
  const CampaignResult eight =
      run_kind(session, CampaignKind::Bridging, Backend::PackedParallel, 8);
  expect_identical(serial, one);
  expect_identical(serial, eight);
}

TEST(Invariance, SequentialThreadsAndSchedule) {
  Session session =
      Session::unprotected(Netlist::from_verilog(circuit_path("s27.v")));
  const CampaignResult serial =
      run_kind(session, CampaignKind::SequentialCoverage, Backend::Reference, 1);
  const CampaignResult one = run_kind(
      session, CampaignKind::SequentialCoverage, Backend::PackedParallel, 1);
  const CampaignResult eight = run_kind(
      session, CampaignKind::SequentialCoverage, Backend::PackedParallel, 8);
  const CampaignResult sweep =
      run_kind(session, CampaignKind::SequentialCoverage, Backend::PackedParallel,
               8, Schedule::Sweep);
  expect_identical(serial, one);
  expect_identical(serial, eight);
  expect_identical(serial, sweep);
}

// --- invariance table: every model x threads x shard size -----------------

enum class Model { StuckAt, Transition, Bridging, Sequential };

const char* model_name(Model model) {
  switch (model) {
    case Model::StuckAt:    return "stuck-at";
    case Model::Transition: return "transition";
    case Model::Bridging:   return "bridging";
    case Model::Sequential: return "sequential";
  }
  return "?";
}

/// One grading input: `tests` patterns (sequences, for the sequential
/// model) over the model's full fault universe, or over no faults at all.
struct GradeCase {
  const char* name;
  std::size_t tests;
  bool no_faults;
};

/// Combinational models grade cmp1908; sequential grades ctrl344.
struct GradeFixture {
  Netlist combinational = Netlist::from_verilog(circuit_path("cmp1908.v"));
  Netlist sequential = Netlist::from_verilog(circuit_path("ctrl344.v"));
  CombinationalFrame frame{combinational};
  std::vector<Fault> stuck_at = collapse_faults(combinational, enumerate_faults(combinational));
  std::vector<TransitionFault> transition = enumerate_transition_faults(combinational);
  std::vector<BridgingFault> bridging = enumerate_bridging_faults(combinational);
  std::vector<Fault> sequential_faults = collapse_faults(sequential, enumerate_faults(sequential));

  std::vector<BitVec> patterns(std::size_t count) const {
    Rng rng(23);
    std::vector<BitVec> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(frame.random_pattern(rng));
    }
    return out;
  }

  FaultSimResult grade(Model model, const GradeCase& c, ThreadPool& pool,
                       std::size_t shard) const {
    const auto faults = [&](const auto& universe) {
      return c.no_faults ? std::decay_t<decltype(universe)>{} : universe;
    };
    const std::vector<BitVec> set = patterns(model == Model::Sequential ? 0 : c.tests);
    switch (model) {
      case Model::StuckAt:
        return fault_simulate(frame, faults(stuck_at), set, pool, shard);
      case Model::Transition:
        return transition_fault_simulate(frame, faults(transition), set, pool, shard);
      case Model::Bridging:
        return bridging_fault_simulate(frame, faults(bridging), set, pool, shard);
      case Model::Sequential:
        return sequential_fault_simulate(sequential, faults(sequential_faults), c.tests, 16,
                                         5, pool, shard);
    }
    return {};
  }
};

TEST(Invariance, EveryModelAcrossThreadsAndShardSizes) {
  const GradeFixture fixture;
  // 300 is not a multiple of the lane-block width at any RETSCAN_LANE_WORDS,
  // so the last block is partial; one pattern makes zero transition pairs.
  const GradeCase cases[] = {
      {"300 tests", 300, false},
      {"no tests", 0, false},
      {"one test", 1, false},
      {"no faults", 300, true},
  };
  for (const Model model :
       {Model::StuckAt, Model::Transition, Model::Bridging, Model::Sequential}) {
    for (const GradeCase& c : cases) {
      SCOPED_TRACE(std::string(model_name(model)) + ", " + c.name);
      const std::size_t default_shard =
          model == Model::Sequential ? grading::kSequentialShard : grading::kShard;
      ThreadPool one(1);
      const FaultSimResult reference = fixture.grade(model, c, one, default_shard);

      // The reference itself is consistent: detected counts its non-npos
      // entries, and every first detection indexes an existing test.
      const std::size_t tests =
          model == Model::Transition ? (c.tests < 2 ? 0 : c.tests - 1) : c.tests;
      std::size_t hits = 0;
      for (const std::size_t first : reference.detected_by) {
        if (first != FaultSimResult::npos) {
          EXPECT_LT(first, tests);
          ++hits;
        }
      }
      EXPECT_EQ(reference.detected, hits);
      EXPECT_EQ(reference.detected_by.size(), reference.total_faults);
      if (c.no_faults) {
        EXPECT_EQ(reference.total_faults, 0u);
      } else {
        EXPECT_GT(reference.total_faults, 0u);
      }
      if (tests == 0) {
        EXPECT_EQ(reference.detected, 0u);
      }
      if (c.tests == 300 && !c.no_faults) {
        EXPECT_GT(reference.detected, 0u);
      }

      for (const unsigned threads : {1u, 3u, 8u}) {
        ThreadPool pool(threads);
        for (const std::size_t shard : {std::size_t{1}, std::size_t{7}, default_shard}) {
          const FaultSimResult graded = fixture.grade(model, c, pool, shard);
          EXPECT_EQ(graded.total_faults, reference.total_faults);
          EXPECT_EQ(graded.detected, reference.detected)
              << threads << " threads, shard " << shard;
          EXPECT_EQ(graded.detected_by, reference.detected_by)
              << threads << " threads, shard " << shard;
        }
      }
    }
  }
}

// --- campaign plumbing ----------------------------------------------------

TEST(CampaignKinds, SpellingsRoundTrip) {
  for (const CampaignKind kind :
       {CampaignKind::TransitionDelay, CampaignKind::Bridging,
        CampaignKind::SequentialCoverage}) {
    CampaignKind parsed;
    ASSERT_TRUE(from_string(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  CampaignKind parsed;
  EXPECT_STREQ(to_string(CampaignKind::TransitionDelay), "transition-delay");
  EXPECT_STREQ(to_string(CampaignKind::Bridging), "bridging");
  EXPECT_STREQ(to_string(CampaignKind::SequentialCoverage), "sequential-coverage");
  EXPECT_FALSE(from_string("transition_delay", parsed));
}

TEST(CampaignKinds, ValidationRejectsCyclesMisuse) {
  Session session = Session::from_verilog(circuit_path("c17.v"));

  CampaignSpec stray;
  stray.kind = CampaignKind::FaultCoverage;
  stray.cycles = 8;
  EXPECT_NE(error_message([&] { validate(stray, session); })
                .find("cycles only applies to sequential-coverage"),
            std::string::npos);

  CampaignSpec no_cycles;
  no_cycles.kind = CampaignKind::SequentialCoverage;
  no_cycles.sequences = 16;
  EXPECT_NE(error_message([&] { validate(no_cycles, session); })
                .find("cycles must be > 0"),
            std::string::npos);

  CampaignSpec no_sequences;
  no_sequences.kind = CampaignKind::SequentialCoverage;
  no_sequences.cycles = 32;
  EXPECT_NE(error_message([&] { validate(no_sequences, session); })
                .find("sequences must be > 0"),
            std::string::npos);

  CampaignSpec event;
  event.kind = CampaignKind::TransitionDelay;
  event.schedule = Schedule::Event;
  EXPECT_NE(error_message([&] { validate(event, session); })
                .find("schedule knob"),
            std::string::npos);
}

TEST(CampaignKinds, TransitionDelayRunShape) {
  Session session = Session::from_verilog(circuit_path("c17.v"));
  const CampaignResult result =
      run_kind(session, CampaignKind::TransitionDelay, Backend::Auto);
  EXPECT_EQ(result.kind, CampaignKind::TransitionDelay);
  EXPECT_EQ(result.backend, Backend::PackedParallel);
  EXPECT_FALSE(result.atpg.patterns.empty());
  EXPECT_GT(result.faults.total_faults, 0u);
  EXPECT_TRUE(result.passed());
  // detected_by indexes launch/capture *pairs*: every value is in range.
  for (const std::size_t pair : result.faults.detected_by) {
    if (pair != FaultSimResult::npos) {
      EXPECT_LT(pair, result.atpg.patterns.size() - 1);
    }
  }
}

}  // namespace
}  // namespace retscan
