// Differential fuzzing of the assign-expression frontend: a seeded random
// generator produces expression modules over a fixed port set, the text is
// parsed and lowered through read_verilog_text + ExprSynth, and the compiled
// kernel's good-machine responses are cross-checked bit-for-bit against a
// tree-walking uint64 oracle that implements the documented semantics
// independently (docs/verilog-frontend.md). Seeds are deterministic; set
// RETSCAN_FUZZ_SEEDS to widen the sweep (CI runs 64, default 16 → 1024
// modules). On mismatch the failing output is re-emitted as a minimal
// single-assign module and dumped with the offending input vector.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "expr_gen.hpp"
#include "netlist/verilog_reader.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

using namespace expr_fuzz;

/// Tree-walking oracle: the value of `e` (masked to e.width) given per-signal
/// input values. Implements the documented semantics directly — independent
/// of ExprSynth's gate lowering.
std::uint64_t eval(const Expr& e, const std::uint64_t env[kSignalCount]) {
  const std::uint64_t mask = width_mask(e.width);
  switch (e.kind) {
    case Expr::Kind::Ref:
      return (env[e.sig] >> e.lsb) & mask;
    case Expr::Kind::Lit:
      return e.value & mask;
    case Expr::Kind::Not:
      return ~eval(e.args[0], env) & mask;
    case Expr::Kind::And:
      return eval(e.args[0], env) & eval(e.args[1], env);
    case Expr::Kind::Or:
      return eval(e.args[0], env) | eval(e.args[1], env);
    case Expr::Kind::Xor:
      return eval(e.args[0], env) ^ eval(e.args[1], env);
    case Expr::Kind::Eq:
      return eval(e.args[0], env) == eval(e.args[1], env) ? 1 : 0;
    case Expr::Kind::Ne:
      return eval(e.args[0], env) != eval(e.args[1], env) ? 1 : 0;
    case Expr::Kind::Shl:
      return (eval(e.args[0], env) << e.amount) & mask;
    case Expr::Kind::Shr:
      return eval(e.args[0], env) >> e.amount;
    case Expr::Kind::Mux:
      return eval(e.args[0], env) ? eval(e.args[1], env) : eval(e.args[2], env);
    case Expr::Kind::Concat: {
      std::uint64_t acc = 0;
      for (const Expr& part : e.args) {  // MSB-first source order
        acc = (acc << part.width) | eval(part, env);
      }
      return acc;
    }
  }
  return 0;
}

// --- checking -------------------------------------------------------------

int signal_index(const std::string& name) {
  for (int i = 0; i < kSignalCount; ++i) {
    if (name == kSignals[i].name) {
      return i;
    }
  }
  return -1;
}

/// Split a bit-blasted port label ("a[3]" / "s") into base name and bit.
std::pair<std::string, int> split_label(const std::string& label) {
  const std::size_t bracket = label.find('[');
  if (bracket == std::string::npos) {
    return {label, 0};
  }
  return {label.substr(0, bracket),
          std::stoi(label.substr(bracket + 1, label.size() - bracket - 2))};
}

struct Mismatch {
  bool found = false;
  std::size_t output = 0;   // index into the module's expression list
  std::size_t pattern = 0;  // offending input vector
};

/// Cross-check one module over `vectors` random input vectors. Returns the
/// first mismatching (output, vector) pair, if any.
Mismatch check_module(const std::vector<Expr>& outputs, Rng& rng,
                      std::size_t vectors,
                      std::vector<std::uint64_t>* failing_env) {
  const Netlist nl = read_verilog_text(module_text(outputs), "fuzz.v");
  const CombinationalFrame frame(nl);

  // Pattern bit i drives pi_nets()[i]; recover (signal, bit) from the name.
  std::vector<std::pair<int, int>> pi_map;
  for (const NetId net : frame.pi_nets()) {
    const auto [base, bit] = split_label(nl.net_name(net));
    const int sig = signal_index(base);
    EXPECT_GE(sig, 0) << "unexpected primary input " << nl.net_name(net);
    pi_map.emplace_back(sig, bit);
  }
  // Response bit i is outputs()[i]; recover (expression, bit) the same way.
  std::vector<std::pair<std::size_t, int>> po_map;
  for (const CellId id : nl.outputs()) {
    const auto [base, bit] = split_label(nl.cell(id).name);
    po_map.emplace_back(std::stoul(base.substr(1)), bit);
  }

  std::vector<std::vector<std::uint64_t>> envs(vectors);
  std::vector<BitVec> patterns;
  for (std::size_t v = 0; v < vectors; ++v) {
    envs[v].resize(kSignalCount);
    for (int i = 0; i < kSignalCount; ++i) {
      envs[v][i] = rng.next_u64() & width_mask(kSignals[i].width);
    }
    BitVec pattern(frame.pattern_width());
    for (std::size_t i = 0; i < pi_map.size(); ++i) {
      pattern.set(i, (envs[v][pi_map[i].first] >> pi_map[i].second) & 1);
    }
    patterns.push_back(std::move(pattern));
  }

  Mismatch mismatch;
  for (std::size_t v = 0; v < vectors; ++v) {
    const BitVec response = frame.good_response(patterns[v]);
    for (std::size_t i = 0; i < po_map.size(); ++i) {
      const std::uint64_t expect = eval(outputs[po_map[i].first], envs[v].data());
      if (response.get(i) !=
          (((expect >> po_map[i].second) & 1) != 0)) {
        mismatch.found = true;
        mismatch.output = po_map[i].first;
        mismatch.pattern = v;
        if (failing_env != nullptr) {
          *failing_env = envs[v];
        }
        return mismatch;
      }
    }
  }
  return mismatch;
}

std::string describe_env(const std::vector<std::uint64_t>& env) {
  std::string out;
  for (int i = 0; i < kSignalCount; ++i) {
    out += std::string(i ? " " : "") + kSignals[i].name + "=" +
           std::to_string(env[static_cast<std::size_t>(i)]);
  }
  return out;
}

// --- tests ----------------------------------------------------------------

// Hand-computed cross-checks of the oracle itself, so a bug that slipped
// into eval() cannot silently agree with an equally wrong lowering.
TEST(ExprDiff, OracleMatchesHandComputedValues) {
  Expr a_ref;
  a_ref.kind = Expr::Kind::Ref;
  a_ref.width = 8;
  a_ref.sig = 0;

  Expr shifted;
  shifted.kind = Expr::Kind::Shr;
  shifted.width = 8;
  shifted.amount = 3;
  shifted.args.push_back(a_ref);

  std::uint64_t env[kSignalCount] = {0b10110101, 0, 0, 0, 0};
  EXPECT_EQ(eval(shifted, env), 0b10110u);
  EXPECT_EQ(emit(shifted), "(a >> 3)");

  Expr cat;
  cat.kind = Expr::Kind::Concat;
  cat.width = 16;
  cat.args.push_back(a_ref);   // high byte
  cat.args.push_back(shifted); // low byte
  EXPECT_EQ(eval(cat, env), (0b10110101u << 8) | 0b10110u);
  EXPECT_EQ(emit(cat), "{a, (a >> 3)}");
}

TEST(ExprDiff, FixedSeedModuleMatchesOracle) {
  Rng rng(0xd1ff5eedULL);
  std::vector<Expr> outputs;
  outputs.push_back(gen(rng, 8, 4));
  outputs.push_back(gen(rng, 4, 4));
  outputs.push_back(gen(rng, 1, 4));
  const Mismatch mismatch = check_module(outputs, rng, 64, nullptr);
  EXPECT_FALSE(mismatch.found)
      << "fixed-seed module disagrees with the oracle:\n"
      << module_text(outputs);
}

TEST(ExprDiff, RandomModulesMatchOracle) {
  const std::size_t seeds = fuzz_seed_count();
  const std::size_t modules_per_seed = 64;
  const std::size_t vectors_per_module = 32;
  std::size_t cases = 0;

  for (std::size_t seed = 0; seed < seeds; ++seed) {
    for (std::size_t m = 0; m < modules_per_seed; ++m) {
      Rng rng(Rng::derive_stream(0xe2f0'0000 + seed, m));
      std::vector<Expr> outputs;
      outputs.push_back(gen(rng, 8, 4));
      outputs.push_back(gen(rng, 8, 3));
      outputs.push_back(gen(rng, 4, 4));
      outputs.push_back(gen(rng, 1, 5));

      std::vector<std::uint64_t> env;
      Mismatch mismatch;
      try {
        mismatch = check_module(outputs, rng, vectors_per_module, &env);
      } catch (const std::exception& error) {
        FAIL() << "generated module failed to parse (seed " << seed
               << ", module " << m << "): " << error.what() << "\n"
               << module_text(outputs);
      }
      ++cases;

      if (mismatch.found) {
        // Shrink: re-emit just the disagreeing output as its own module so
        // the dump is a standalone reproducer.
        const std::vector<Expr> shrunk = {outputs[mismatch.output]};
        ADD_FAILURE() << "kernel/oracle mismatch at seed " << seed
                      << ", module " << m << ", output y" << mismatch.output
                      << ", inputs " << describe_env(env)
                      << "\nshrunk reproducer:\n"
                      << module_text(shrunk);
        return;
      }
    }
  }
  // 16 seeds x 64 modules = 1024 differential cases by default.
  EXPECT_GE(cases, seeds * modules_per_seed);
  RecordProperty("fuzz_cases", static_cast<int>(cases));
}

}  // namespace
}  // namespace retscan
