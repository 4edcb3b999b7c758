// This file deliberately exercises the pre-v1 delivery entry points
// (they are the backends the Session facade routes onto), so the
// deprecation attributes are suppressed here.
#define RETSCAN_SUPPRESS_DEPRECATED

#include "atpg/atpg.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "atpg/scan_test.hpp"
#include "scan/scan_insert.hpp"
#include "circuits/fifo.hpp"
#include "circuits/generators.hpp"
#include "retscan/session.hpp"
#include "scan/scan_io.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

TEST(Fault, EnumerationSkipsDanglingNets) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId y = nl.n_not(a);
  nl.add_output("y", y);
  nl.add_input("unused");  // no readers -> no faults
  const auto faults = enumerate_faults(nl);
  // Nets with faults: a (read by Not), y (read by Output). SA0+SA1 each.
  EXPECT_EQ(faults.size(), 4u);
}

TEST(Fault, NamesAreReadable) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output("y", nl.n_buf(a));
  const auto faults = enumerate_faults(nl);
  EXPECT_EQ(fault_name(nl, faults[0]), "a/SA0");
  EXPECT_EQ(fault_name(nl, faults[1]), "a/SA1");
}

TEST(Fault, CollapseThroughBufAndNot) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.n_buf(a);
  const NetId c = nl.n_not(b);
  nl.add_output("y", c);
  const auto faults = enumerate_faults(nl);   // a, b, c -> 6 faults
  const auto collapsed = collapse_faults(nl, faults);
  // b/SAv collapses onto a/SAv; c/SAv collapses onto a/SA(!v):
  // only a/SA0 and a/SA1 remain.
  EXPECT_EQ(faults.size(), 6u);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].net, a);
  EXPECT_EQ(collapsed[1].net, a);
  EXPECT_NE(collapsed[0].stuck_at, collapsed[1].stuck_at);
}

TEST(CombinationalFrame, GoodResponseMatchesSimulatorSemantics) {
  Netlist nl = make_registered_adder(4);
  const CombinationalFrame frame(nl);
  EXPECT_EQ(frame.pi_nets().size(), 9u);   // a0..3, b0..3, cin
  EXPECT_EQ(frame.flops().size(), 14u);    // 4+4+1 input regs, 4+1 output regs
  Rng rng(1);
  // Cross-check one pattern against the cycle simulator.
  const BitVec pattern = frame.random_pattern(rng);
  const BitVec response = frame.good_response(pattern);
  Simulator sim(nl);
  for (std::size_t i = 0; i < frame.pi_nets().size(); ++i) {
    sim.set_input(frame.pi_nets()[i], pattern.get(i));
  }
  for (std::size_t i = 0; i < frame.flops().size(); ++i) {
    sim.set_flop_state(frame.flops()[i], pattern.get(frame.pi_nets().size() + i));
  }
  sim.eval();
  for (std::size_t i = 0; i < frame.po_nets().size(); ++i) {
    EXPECT_EQ(sim.net_value(frame.po_nets()[i]), response.get(i));
  }
  sim.step();
  for (std::size_t i = 0; i < frame.flops().size(); ++i) {
    EXPECT_EQ(sim.flop_state(frame.flops()[i]),
              response.get(frame.po_nets().size() + i));
  }
}

TEST(FaultSim, SingleFaultDetection) {
  // y = a AND b; a/SA0 detected by pattern a=1,b=1 only.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.add_output("y", nl.n_and(a, b));
  const CombinationalFrame frame(nl);
  std::vector<BitVec> patterns;
  for (int p = 0; p < 4; ++p) {
    BitVec pat(2);
    pat.set(0, p & 1);
    pat.set(1, (p >> 1) & 1);
    patterns.push_back(pat);
  }
  std::vector<BitVec> good;
  for (const auto& p : patterns) {
    good.push_back(frame.good_response(p));
  }
  const std::uint64_t mask = frame.detect_mask(Fault{a, false}, patterns, good);
  EXPECT_EQ(mask, 0b1000u);  // only pattern 3 (a=1, b=1)
  const std::uint64_t mask_sa1 = frame.detect_mask(Fault{a, true}, patterns, good);
  EXPECT_EQ(mask_sa1, 0b0100u);  // only pattern 2 (a=0, b=1)
}

TEST(FaultSim, ConeSimulationMatchesFullSimulationCoverage) {
  // The cone-incremental fault simulator must report exactly the coverage
  // of the retained full-circuit reference path — same detected set, same
  // first-detecting pattern per fault.
  Netlist nl = make_counter(10);
  ScanInsertionOptions options;
  options.chain_count = 2;
  insert_scan(nl, options);
  CombinationalFrame frame(nl);
  frame.constrain("se", false);
  frame.constrain("retain", false);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Rng rng(12);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 100; ++i) {  // two batches, second partial
    patterns.push_back(frame.random_pattern(rng));
  }
  constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> reference(faults.size(), npos);
  std::size_t reference_detected = 0;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    const auto good = frame.good_response_words(batch);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (reference[fi] != npos) {
        continue;
      }
      const std::uint64_t mask = frame.detect_mask_full(faults[fi], batch, good);
      if (mask != 0) {
        reference[fi] = base + static_cast<std::size_t>(std::countr_zero(mask));
        ++reference_detected;
      }
    }
  }
  ThreadPool pool(1);
  const FaultSimResult result = fault_simulate(frame, faults, patterns, pool);
  EXPECT_EQ(result.detected_by, reference);
  EXPECT_EQ(result.detected, reference_detected);
  EXPECT_GT(result.detected, 0u);
}

TEST(FaultSim, ExhaustivePatternsDetectAllAdderFaults) {
  Netlist nl = make_registered_adder(2);
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Rng rng(2);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 256; ++i) {
    patterns.push_back(frame.random_pattern(rng));
  }
  ThreadPool pool(1);
  const FaultSimResult result = fault_simulate(frame, faults, patterns, pool);
  // The adder frame is fully testable; 256 random patterns over a handful
  // of inputs saturate it.
  EXPECT_EQ(result.detected, result.total_faults);
}

TEST(Podem, GeneratesTestsCrossCheckedByFaultSim) {
  Netlist nl = make_registered_adder(4);
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Podem podem(frame);
  Rng rng(3);
  std::size_t generated = 0;
  for (const Fault& fault : faults) {
    const PodemResult result = podem.generate(fault, rng);
    ASSERT_FALSE(result.aborted) << fault_name(nl, fault);
    if (result.success) {
      ++generated;
      // The generated pattern must actually detect the fault.
      const std::vector<BitVec> batch{result.pattern};
      const std::vector<BitVec> good{frame.good_response(result.pattern)};
      EXPECT_NE(frame.detect_mask(fault, batch, good), 0u)
          << fault_name(nl, fault);
    }
  }
  EXPECT_EQ(generated, faults.size());  // adder has no redundant faults
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // y = b OR (a AND NOT a): the AND output is constant 0, so its SA0 is
  // untestable (classic redundancy).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId and_out = nl.n_and(a, nl.n_not(a));
  nl.add_output("y", nl.n_or(b, and_out));
  const CombinationalFrame frame(nl);
  Podem podem(frame);
  Rng rng(4);
  const PodemResult sa0 = podem.generate(Fault{and_out, false}, rng);
  EXPECT_FALSE(sa0.success);
  EXPECT_TRUE(sa0.untestable);
  // SA1 on the same net is testable (set b=0, observe 1 instead of 0).
  const PodemResult sa1 = podem.generate(Fault{and_out, true}, rng);
  EXPECT_TRUE(sa1.success);
}

TEST(Podem, BacktraceLoopThroughLatchThrows) {
  // y = q AND a, with q a latch fed back from y: q is X to PODEM, so
  // propagating a/SA0 through the AND sends backtrace round q -> y -> q.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_net("q");
  const NetId y = nl.n_and(q, a);
  nl.add_cell_bound(CellType::LatchL, {y, a}, q);
  nl.add_output("y", y);
  const CombinationalFrame frame(nl);
  Podem podem(frame);
  Rng rng(6);
  try {
    podem.generate(Fault{a, false}, rng);
    ADD_FAILURE() << "expected the backtrace loop guard to throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("X loop"), std::string::npos) << error.what();
  }
}

TEST(Atpg, FullFlowReachesFullCoverageOnAdder) {
  Netlist nl = make_registered_adder(4);
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions options;
  options.random_patterns = 64;
  const AtpgResult result = run_atpg(frame, faults, options);
  EXPECT_EQ(result.detected() + result.untestable, result.total_faults);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
  EXPECT_GT(result.patterns.size(), 0u);
  EXPECT_LT(result.patterns.size(), 80u);  // compaction keeps only useful ones
}

TEST(Atpg, RandomResistantFaultsNeedPodem) {
  // A wide AND tree's output SA0 needs the all-ones input — random-pattern
  // resistant at 16 inputs (p = 2^-16 per pattern).
  Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 16; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  nl.add_output("y", nl.n_and_tree(ins));
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions options;
  options.random_patterns = 128;
  options.seed = 5;
  const AtpgResult result = run_atpg(frame, faults, options);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
  EXPECT_GT(result.detected_podem, 0u);
}

/// Pinned complete-ATPG outcomes (random 256 + PODEM at 300 backtracks,
/// seed 1) on imports that exercise PODEM's successes, untestables and
/// aborts, with the '89-class circuits in the protection wrap perfbench and
/// bench_external use. Any change to PODEM's search — objective, backtrace,
/// backtrack order or X-fill draws — moves the counts or the digest.
TEST(AtpgGoldens, CompleteAtpgOnImportsIsPinned) {
  struct Golden {
    const char* file;
    std::size_t chains;  // 0 = bare import
    CodeKind kind;
    std::size_t total, detected_random, detected_podem, untestable, aborted, patterns;
    std::uint64_t digest;  // FNV-1a of the pattern set
  };
  const Golden goldens[] = {
      {"c17.v", 0, CodeKind::CrcDetect, 22, 22, 0, 0, 0, 4, 0x33a03f6cba3d1d21ull},
      {"cmp1908.v", 0, CodeKind::CrcDetect, 1388, 1064, 319, 5, 0, 108,
       0x42f5878b77d6ed14ull},
      {"ctl2670.v", 0, CodeKind::CrcDetect, 2054, 1799, 253, 2, 0, 109,
       0x2d04a657cce85ab2ull},
      {"mul6288.v", 0, CodeKind::CrcDetect, 3458, 3410, 0, 24, 24, 63,
       0xbe887dadbc7f7b31ull},
      {"s27.v", 3, CodeKind::CrcDetect, 316, 201, 0, 53, 62, 9, 0x303f3b470d68cb6bull},
      {"ctrl344.v", 4, CodeKind::HammingPlusCrc, 690, 495, 2, 130, 63, 25,
       0xff153206f6af8243ull},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.file);
    Netlist nl = Netlist::from_verilog(std::string(RETSCAN_CIRCUITS_DIR) + "/" + golden.file);
    ProtectionConfig protection;
    protection.kind = golden.kind;
    protection.chain_count = golden.chains;
    protection.test_width = golden.chains;
    Session session = golden.chains == 0 ? Session::unprotected(std::move(nl))
                                         : Session(std::move(nl), protection);
    AtpgOptions options;
    options.random_patterns = 256;
    options.max_backtracks = 300;
    options.seed = 1;
    const AtpgResult result = run_atpg(session.frame(), session.faults(), options);
    Fnv1a digest;
    digest.add(result.patterns.size());
    for (const BitVec& pattern : result.patterns) {
      digest.add(pattern.size());
      for (const std::uint64_t word : pattern.words()) {
        digest.add(word);
      }
    }
    EXPECT_EQ(result.total_faults, golden.total);
    EXPECT_EQ(result.detected_random, golden.detected_random);
    EXPECT_EQ(result.detected_podem, golden.detected_podem);
    EXPECT_EQ(result.untestable, golden.untestable);
    EXPECT_EQ(result.aborted, golden.aborted);
    EXPECT_EQ(result.patterns.size(), golden.patterns);
    EXPECT_EQ(digest.hash, golden.digest);
  }
}

/// Manufacturing test through real scan chains: ATPG patterns applied
/// serially to the simulated scanned design must all pass.
TEST(ScanTest, PatternsPassThroughPlainChains) {
  Netlist nl = make_counter(12);
  ScanInsertionOptions options;
  options.chain_count = 3;
  const ScanChains chains = insert_scan(nl, options);
  CombinationalFrame frame(nl);
  frame.constrain("se", false);
  frame.constrain("retain", false);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions atpg_options;
  atpg_options.random_patterns = 128;
  const AtpgResult atpg = run_atpg(frame, faults, atpg_options);
  EXPECT_GT(atpg.coverage(), 0.95);

  Simulator sim(nl);
  const ScanTestResult applied = apply_scan_test(sim, chains, frame, atpg.patterns);
  EXPECT_EQ(applied.patterns_applied, atpg.patterns.size());
  EXPECT_TRUE(applied.all_passed());
}

/// Section III end-to-end: the same ATPG pattern set passes when delivered
/// through the Fig. 5(b) test-mode concatenation of a protected design —
/// the monitoring architecture does not disturb manufacturing test.
TEST(ScanTest, PatternsPassThroughTestModeConcatenation) {
  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);

  CombinationalFrame frame(design.netlist());
  for (const char* name :
       {"se", "retain", "mon_en", "mon_decode", "mon_clear", "sig_capture",
        "sig_compare", "test_mode"}) {
    frame.constrain(name, false);
  }
  const auto faults = collapse_faults(design.netlist(), enumerate_faults(design.netlist()));
  AtpgOptions atpg_options;
  atpg_options.random_patterns = 128;
  atpg_options.run_podem = false;  // random phase is enough for delivery check
  const AtpgResult atpg = run_atpg(frame, faults, atpg_options);
  EXPECT_GT(atpg.patterns.size(), 0u);

  RetentionSession session(design);
  const ScanTestResult via_test_ports =
      apply_test_mode_scan_test(session, design, frame, atpg.patterns);
  EXPECT_EQ(via_test_ports.patterns_applied, atpg.patterns.size());
  EXPECT_TRUE(via_test_ports.all_passed());

  // Oracle: delivering the same patterns by writing flop states directly
  // gives the same verdict — the concatenation plumbing is transparent.
  // (Per-chain si ports do not exist on a protected design: Fig. 2 rewires
  // them into the mode muxes, so tsi/tso is the only external scan access.)
  RetentionSession session2(design);
  Simulator& sim2 = session2.sim();
  std::size_t direct_mismatches = 0;
  for (const BitVec& pattern : atpg.patterns) {
    const BitVec good = frame.good_response(pattern);
    for (std::size_t i = 0; i < frame.pi_nets().size(); ++i) {
      sim2.set_input(frame.pi_nets()[i], pattern.get(i));
    }
    for (std::size_t i = 0; i < frame.flops().size(); ++i) {
      sim2.set_flop_state(frame.flops()[i], pattern.get(frame.pi_nets().size() + i));
    }
    sim2.eval();
    bool ok = true;
    for (std::size_t i = 0; i < frame.po_nets().size(); ++i) {
      ok = ok && sim2.net_value(frame.po_nets()[i]) == good.get(i);
    }
    sim2.step();
    for (std::size_t i = 0; i < frame.flops().size(); ++i) {
      ok = ok &&
           sim2.flop_state(frame.flops()[i]) == good.get(frame.po_nets().size() + i);
    }
    if (!ok) {
      ++direct_mismatches;
    }
  }
  EXPECT_EQ(direct_mismatches, 0u);
}

}  // namespace
}  // namespace retscan
