// Differential test of the compiled incremental PODEM (src/atpg/podem.hpp)
// against the reference full-re-simulation PODEM (bench/reference_podem.hpp).
// Both run on every random-phase survivor of the vendored imports and of
// seeded random expression modules (test_expr_diff's generator: constants,
// XOR families and `?:` Mux2 gates whose select goes X during the search),
// sharing one RNG stream each, and must return field-for-field identical
// PodemResults. Independently of the reference, every success pattern must
// detect its fault under the interpreted full-circuit simulator
// (detect_mask_full), and on frames with at most 20 free pattern bits every
// untestable verdict is confirmed by exhaustive simulation. Seeds are
// deterministic; RETSCAN_FUZZ_SEEDS widens the module sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/podem.hpp"
#include "expr_gen.hpp"
#include "netlist/verilog_reader.hpp"
#include "reference_podem.hpp"
#include "retscan/session.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

constexpr std::size_t kExhaustiveBits = 20;

struct Tally {
  std::size_t targets = 0;
  std::size_t success = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  std::size_t exhaustive = 0;  // untestable verdicts confirmed exhaustively
  std::size_t threw = 0;       // targets both implementations rejected
};

/// Does any legal pattern of the frame (free bits enumerated, constrained
/// bits fixed) detect any of `faults`? Simulated in chunks of patterns.
bool any_pattern_detects(const CombinationalFrame& frame, const std::vector<Fault>& faults) {
  std::vector<std::size_t> free_bits;
  BitVec fixed(frame.pattern_width());
  std::vector<bool> constrained(frame.pattern_width(), false);
  for (const auto& [index, value] : frame.constraints()) {
    constrained[index] = true;
    fixed.set(index, value);
  }
  for (std::size_t i = 0; i < frame.pattern_width(); ++i) {
    if (!constrained[i]) {
      free_bits.push_back(i);
    }
  }
  ThreadPool pool(1);
  constexpr std::uint64_t kChunk = 4096;
  const std::uint64_t total = std::uint64_t{1} << free_bits.size();
  for (std::uint64_t base = 0; base < total; base += kChunk) {
    std::vector<BitVec> patterns;
    for (std::uint64_t k = base; k < std::min(total, base + kChunk); ++k) {
      BitVec pattern = fixed;
      for (std::size_t b = 0; b < free_bits.size(); ++b) {
        pattern.set(free_bits[b], (k >> b) & 1);
      }
      patterns.push_back(std::move(pattern));
    }
    if (fault_simulate(frame, faults, patterns, pool).detected != 0) {
      return true;
    }
  }
  return false;
}

/// Run both PODEMs on every fault the random phase leaves undetected.
void diff_survivors(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                    std::uint64_t seed, std::size_t random_patterns,
                    std::size_t backtracks, const std::string& label, Tally& tally) {
  AtpgOptions options;
  options.random_patterns = random_patterns;
  options.run_podem = false;
  options.seed = seed;
  const AtpgResult random = run_atpg(frame, faults, options);
  ThreadPool pool(1);
  const FaultSimResult graded = fault_simulate(frame, faults, random.patterns, pool);

  Podem podem(frame, backtracks);
  bench::ReferencePodem reference(frame, backtracks);
  Rng rng(seed);
  Rng reference_rng(seed);
  std::vector<Fault> untestable;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (graded.detected_by[i] != FaultSimResult::npos) {
      continue;
    }
    const Fault& fault = faults[i];
    // Backtrace into a latch's fanin can run out of X inputs (the latch
    // output stays X); both implementations must then throw alike.
    PodemResult got;
    PodemResult want;
    bool got_threw = false;
    bool want_threw = false;
    try {
      got = podem.generate(fault, rng);
    } catch (const Error&) {
      got_threw = true;
    }
    try {
      want = reference.generate(fault, reference_rng);
    } catch (const Error&) {
      want_threw = true;
    }
    ++tally.targets;
    EXPECT_EQ(got_threw, want_threw) << label << ": " << fault_name(frame.netlist(), fault);
    if (got_threw || want_threw) {
      ++tally.threw;
      continue;
    }
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.untestable, want.untestable);
    EXPECT_EQ(got.aborted, want.aborted);
    EXPECT_EQ(got.backtracks, want.backtracks);
    EXPECT_EQ(got.pattern, want.pattern);
    if (!(got == want)) {
      ADD_FAILURE() << label << ": compiled and reference PODEM diverge on "
                    << fault_name(frame.netlist(), fault);
      return;  // the RNG streams are out of step from here on
    }
    if (got.success) {
      ++tally.success;
      const std::vector<BitVec> batch{got.pattern};
      EXPECT_NE(frame.detect_mask_full(fault, batch, frame.good_response_words(batch)), 0u)
          << label << ": pattern does not detect " << fault_name(frame.netlist(), fault);
    }
    if (got.untestable) {
      ++tally.untestable;
      untestable.push_back(fault);
    }
    tally.aborted += got.aborted ? 1 : 0;
  }
  // Latch outputs are X to PODEM but 0 to the fault simulator, so only
  // latch-free frames have a pattern space the simulator covers exactly.
  bool has_latch = false;
  for (CellId id = 0; id < frame.netlist().cell_count(); ++id) {
    has_latch = has_latch || frame.netlist().cell(id).type == CellType::LatchL;
  }
  if (!untestable.empty() && !has_latch &&
      frame.pattern_width() - frame.constraints().size() <= kExhaustiveBits) {
    EXPECT_FALSE(any_pattern_detects(frame, untestable))
        << label << ": a fault PODEM proved untestable is detectable";
    tally.exhaustive += untestable.size();
  }
}

/// A random gate-level frame built directly on the Netlist API: every
/// compiled op (Nand/Nor/Xnor and Mux2 included, which the expression
/// frontend never emits as such), constants, flip-flops as pseudo-inputs
/// and outputs, and optionally a latch whose output PODEM must treat as X.
/// At most 10 pattern bits, so every untestable verdict is checked
/// exhaustively on latch-free frames.
Netlist random_gate_netlist(Rng& rng, bool with_latch) {
  const auto pick = [&](std::size_t bound) { return rng.next_u64() % bound; };
  Netlist nl;
  std::vector<NetId> pool;
  for (std::size_t i = 0, n = 3 + pick(6); i < n; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  // Sequential outputs are sources; their cells are bound once the logic
  // that feeds them exists.
  std::vector<NetId> flop_q;
  for (std::size_t i = 0, n = pick(3); i < n; ++i) {
    flop_q.push_back(nl.add_net("q" + std::to_string(i)));
    pool.push_back(flop_q.back());
  }
  // The latch reads only the sources created before it: round a loop of X
  // logic the reference backtrace never returns (the compiled one throws).
  const std::size_t latch_fanin = pool.size();
  const NetId latch_q = with_latch ? nl.add_net("lq") : kNullNet;
  if (with_latch) {
    pool.push_back(latch_q);
  }
  // Operands lean towards recent nets so the logic gets deep.
  const auto operand = [&] {
    const std::size_t span = std::min<std::size_t>(pool.size(), 6);
    return pick(2) == 0 ? pool[pick(pool.size())] : pool[pool.size() - 1 - pick(span)];
  };
  for (std::size_t g = 0, n = 8 + pick(24); g < n; ++g) {
    NetId out = kNullNet;
    switch (pick(12)) {
      case 0: out = nl.n_not(operand()); break;
      case 1: out = nl.n_buf(operand()); break;
      case 2: out = nl.n_and(operand(), operand()); break;
      case 3: out = nl.n_or(operand(), operand()); break;
      case 4: out = nl.n_xor(operand(), operand()); break;
      case 5: out = nl.n_nand(operand(), operand()); break;
      case 6: out = nl.n_nor(operand(), operand()); break;
      case 7: out = nl.n_xnor(operand(), operand()); break;
      case 8: out = nl.n_const(pick(2) == 0); break;
      default: out = nl.n_mux(operand(), operand(), operand()); break;
    }
    pool.push_back(out);
  }
  for (const NetId q : flop_q) {
    nl.add_cell_bound(CellType::Dff, {operand()}, q);
  }
  if (with_latch) {
    const NetId d = pool[pick(latch_fanin)];
    nl.add_cell_bound(CellType::LatchL, {d, pool[pick(latch_fanin)]}, latch_q);
  }
  for (std::size_t o = 0, n = 1 + pick(3); o < n; ++o) {
    nl.add_output("y" + std::to_string(o), o == 0 ? pool.back() : operand());
  }
  return nl;
}

TEST(PodemDiff, ImportsMatchReference) {
  struct Import {
    const char* file;
    std::size_t chains;  // 0 = bare import
    CodeKind kind;
  };
  // Wrapped as bench_external and perfbench wrap them: the '89-class
  // circuits in the protection architecture, the rest bare. The three
  // costliest for the reference come first.
  const Import imports[] = {
      {"epfl_max.v", 0, CodeKind::CrcDetect},     {"vot7552.v", 0, CodeKind::CrcDetect},
      {"bar5315.v", 0, CodeKind::CrcDetect},      {"c17.v", 0, CodeKind::CrcDetect},
      {"add432.v", 0, CodeKind::CrcDetect},       {"mul880.v", 0, CodeKind::CrcDetect},
      {"ecc499.v", 0, CodeKind::CrcDetect},       {"par1355.v", 0, CodeKind::CrcDetect},
      {"cmp1908.v", 0, CodeKind::CrcDetect},      {"ctl2670.v", 0, CodeKind::CrcDetect},
      {"alu3540.v", 0, CodeKind::CrcDetect},      {"mul6288.v", 0, CodeKind::CrcDetect},
      {"s27.v", 3, CodeKind::CrcDetect},          {"ctrl344.v", 4, CodeKind::HammingPlusCrc},
      {"pipe1196.v", 4, CodeKind::CrcDetect},     {"ctrl5378.v", 4, CodeKind::CrcDetect},
      {"epfl_adder.v", 0, CodeKind::CrcDetect},   {"epfl_bar.v", 0, CodeKind::CrcDetect},
  };
  // Imports are independent, so they run concurrently (the reference's
  // re-simulation per decision dominates on bar5315, vot7552 and epfl_max).
  constexpr std::size_t kImports = std::size(imports);
  std::vector<Tally> tallies(kImports);
  ThreadPool pool(4);
  pool.parallel_for(kImports, [&](std::size_t i) {
    const Import& import = imports[i];
    Netlist nl = Netlist::from_verilog(std::string(RETSCAN_CIRCUITS_DIR) + "/" + import.file);
    ProtectionConfig protection;
    protection.kind = import.kind;
    protection.chain_count = import.chains;
    protection.test_width = import.chains;
    Session session = import.chains == 0 ? Session::unprotected(std::move(nl))
                                         : Session(std::move(nl), protection);
    // A small budget keeps the reference's aborts affordable; the abort
    // path is exercised all the same.
    diff_survivors(session.frame(), session.faults(), 1, 256, 20, import.file, tallies[i]);
  });
  Tally tally;
  for (const Tally& t : tallies) {
    tally.targets += t.targets;
    tally.success += t.success;
    tally.untestable += t.untestable;
    tally.aborted += t.aborted;
  }
  EXPECT_GT(tally.success, 0u);
  EXPECT_GT(tally.untestable, 0u);
  EXPECT_GT(tally.aborted, 0u);
  RecordProperty("targets", static_cast<int>(tally.targets));
}

TEST(PodemDiff, RandomModulesMatchReference) {
  using namespace expr_fuzz;
  const std::size_t seeds = fuzz_seed_count();
  const std::size_t modules_per_seed = 16;
  Tally tally;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    for (std::size_t m = 0; m < modules_per_seed; ++m) {
      Rng rng(Rng::derive_stream(0x90de'0000 + seed, m));
      std::vector<Expr> outputs;
      outputs.push_back(gen(rng, 4, 4));
      outputs.push_back(gen(rng, 1, 5));
      outputs.push_back(gen(rng, 1, 4));
      const std::string text = module_text(outputs);
      const Netlist nl = read_verilog_text(text, "fuzz.v");
      CombinationalFrame frame(nl);
      // Every other module pins the high halves of a and b: constrained
      // inputs in the search, and 14 free bits for exhaustive checks.
      if (m % 2 == 1) {
        for (const char* bus : {"a", "b"}) {
          for (int bit = 4; bit < 8; ++bit) {
            frame.constrain(std::string(bus) + "[" + std::to_string(bit) + "]",
                            rng.next_bool(0.5));
          }
        }
      }
      const std::string label = "seed " + std::to_string(seed) + ", module " +
                                std::to_string(m) + ":\n" + text;
      diff_survivors(frame, collapse_faults(nl, enumerate_faults(nl)), seed, 16, 40, label,
                     tally);
      if (HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(tally.success, 0u);
  EXPECT_GT(tally.untestable, 0u);
  EXPECT_GT(tally.exhaustive, 0u);
  RecordProperty("targets", static_cast<int>(tally.targets));
}

TEST(PodemDiff, RandomGateNetlistsMatchReference) {
  const std::size_t seeds = expr_fuzz::fuzz_seed_count();
  const std::size_t netlists_per_seed = 32;
  Tally tally;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    for (std::size_t n = 0; n < netlists_per_seed; ++n) {
      Rng rng(Rng::derive_stream(0x6a7e'0000 + seed, n));
      const Netlist nl = random_gate_netlist(rng, n % 4 == 3);
      const CombinationalFrame frame(nl);
      const std::string label =
          "seed " + std::to_string(seed) + ", netlist " + std::to_string(n);
      diff_survivors(frame, collapse_faults(nl, enumerate_faults(nl)), seed, 4, 40, label,
                     tally);
      if (HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(tally.success, 0u);
  EXPECT_GT(tally.untestable, 0u);
  EXPECT_GT(tally.exhaustive, 0u);
  RecordProperty("targets", static_cast<int>(tally.targets));
}

/// The dual-rail kernel against the {0,1,X} truth tables, every operand
/// combination, both machines at once (good and faulty lanes differ).
TEST(PodemDiff, DualRailGatesMatchThreeValuedTables) {
  using Tri = Podem::Tri;
  constexpr int kX = 2;
  const auto tri = [](int good, int faulty) {
    Tri t;
    for (const auto& [machine, v] : {std::pair{0, good}, std::pair{1, faulty}}) {
      if (v == 1) t.one |= static_cast<std::uint8_t>(1u << machine);
      if (v == 0) t.zero |= static_cast<std::uint8_t>(1u << machine);
    }
    return t;
  };
  const auto v_not = [](int a) { return a == kX ? kX : 1 - a; };
  const auto v_and = [](int a, int b) { return a == 0 || b == 0 ? 0 : a == 1 && b == 1 ? 1 : kX; };
  const auto v_or = [](int a, int b) { return a == 1 || b == 1 ? 1 : a == 0 && b == 0 ? 0 : kX; };
  const auto v_xor = [](int a, int b) { return a == kX || b == kX ? kX : a ^ b; };
  const auto v_mux = [](int s, int a, int b) {
    return s == 0 ? a : s == 1 ? b : (a != kX && a == b ? a : kX);
  };
  const auto eval = [&](CompiledOp op, int s, int a, int b) {
    switch (op) {
      case CompiledOp::Buf: return s;
      case CompiledOp::Not: return v_not(s);
      case CompiledOp::And2: return v_and(s, a);
      case CompiledOp::Or2: return v_or(s, a);
      case CompiledOp::Xor2: return v_xor(s, a);
      case CompiledOp::Nand2: return v_not(v_and(s, a));
      case CompiledOp::Nor2: return v_not(v_or(s, a));
      case CompiledOp::Xnor2: return v_not(v_xor(s, a));
      case CompiledOp::Mux2: return v_mux(s, a, b);
    }
    return kX;
  };
  const CompiledOp ops[] = {CompiledOp::Buf,   CompiledOp::Not,  CompiledOp::And2,
                            CompiledOp::Or2,   CompiledOp::Xor2, CompiledOp::Nand2,
                            CompiledOp::Nor2,  CompiledOp::Xnor2, CompiledOp::Mux2};
  CompiledInstr instr;
  instr.in0 = 0;
  instr.in1 = 1;
  instr.in2 = 2;
  for (const CompiledOp op : ops) {
    instr.op = op;
    for (int code = 0; code < 729; ++code) {  // 3^6: 3 operands x 2 machines
      int digits[6];
      for (int d = 0, c = code; d < 6; ++d, c /= 3) {
        digits[d] = c % 3;
      }
      const Tri values[3] = {tri(digits[0], digits[1]), tri(digits[2], digits[3]),
                             tri(digits[4], digits[5])};
      const Tri got = CompiledNetlist::eval_instr(instr, values);
      const Tri want = tri(eval(op, digits[0], digits[2], digits[4]),
                           eval(op, digits[1], digits[3], digits[5]));
      ASSERT_EQ(got, want) << "op " << static_cast<int>(op) << ", operands code " << code;
    }
  }
}

}  // namespace
}  // namespace retscan
