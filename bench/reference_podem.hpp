#pragma once

// Reference PODEM: the original full-re-simulation test generator, kept
// header-only as the independent oracle for the compiled incremental Podem
// (src/atpg/podem.hpp). Every implication re-simulates the whole frame from
// scratch by walking `Cell` objects with private {0,1,X} truth tables, and
// the D-frontier is rediscovered by rescanning `combinational_order()` —
// the costs the compiled Podem removes. The search itself (objectives,
// backtrace, chronological backtracking, X-fill draws) is the same, so both
// must return field-for-field identical PodemResults for the same fault and
// RNG state. Not linked into the library: the differential test and
// bench_atpg_coverage's `atpg_speedup` are its only users.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "retscan/netlist.hpp"
#include "retscan/test.hpp"

namespace retscan::bench {

class ReferencePodem {
 public:
  explicit ReferencePodem(const CombinationalFrame& frame, std::size_t max_backtracks = 500)
      : frame_(&frame),
        max_backtracks_(max_backtracks),
        good_(frame.netlist().net_count(), kX),
        faulty_(frame.netlist().net_count(), kX),
        input_values_(frame.pattern_width(), kX),
        input_of_net_(frame.netlist().net_count(), kNpos) {
    input_nets_.reserve(frame.pattern_width());
    for (const NetId net : frame.pi_nets()) {
      input_of_net_[net] = input_nets_.size();
      input_nets_.push_back(net);
    }
    for (const CellId flop : frame.flops()) {
      const NetId q = frame.netlist().cell(flop).out;
      input_of_net_[q] = input_nets_.size();
      input_nets_.push_back(q);
    }
  }

  PodemResult generate(const Fault& fault, Rng& rng) {
    PodemResult result;
    std::fill(input_values_.begin(), input_values_.end(), kX);
    // Constrained inputs are fixed before any decision and are never X, so
    // backtrace cannot choose them and backtracking cannot flip them.
    for (const auto& [index, value] : frame_->constraints()) {
      input_values_[index] = value ? 1 : 0;
    }

    struct Decision {
      std::size_t input;
      bool flipped;
    };
    std::vector<Decision> stack;
    imply(fault);

    const std::size_t iteration_limit = 20000;
    for (std::size_t iteration = 0; iteration < iteration_limit; ++iteration) {
      if (detected()) {
        result.success = true;
        result.pattern = BitVec(frame_->pattern_width());
        for (std::size_t i = 0; i < input_values_.size(); ++i) {
          const std::uint8_t v = input_values_[i];
          result.pattern.set(i, v == kX ? rng.next_bool(0.5) : v == 1);
        }
        return result;
      }

      const bool conflict = activation_impossible(fault) || propagation_impossible(fault);
      Objective objective;
      if (!conflict) {
        objective = pick_objective(fault);
      }
      if (conflict || !objective.valid) {
        // Backtrack chronologically.
        for (;;) {
          if (stack.empty()) {
            result.untestable = result.backtracks <= max_backtracks_;
            result.aborted = !result.untestable;
            return result;
          }
          Decision& top = stack.back();
          if (!top.flipped) {
            top.flipped = true;
            input_values_[top.input] = input_values_[top.input] == 1 ? 0 : 1;
            ++result.backtracks;
            break;
          }
          input_values_[top.input] = kX;
          stack.pop_back();
        }
        if (result.backtracks > max_backtracks_) {
          result.aborted = true;
          return result;
        }
        imply(fault);
        continue;
      }

      const auto [input, value] = backtrace(objective);
      input_values_[input] = value ? 1 : 0;
      stack.push_back(Decision{input, false});
      imply(fault);
    }
    result.aborted = true;
    return result;
  }

 private:
  static constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
  static constexpr std::uint8_t kX = 2;

  struct Objective {
    bool valid = false;
    NetId net = kNullNet;
    bool value = false;
  };

  static std::uint8_t v_not(std::uint8_t a) { return a == kX ? kX : (a ? 0 : 1); }
  static std::uint8_t v_and(std::uint8_t a, std::uint8_t b) {
    if (a == 0 || b == 0) return 0;
    if (a == 1 && b == 1) return 1;
    return kX;
  }
  static std::uint8_t v_or(std::uint8_t a, std::uint8_t b) {
    if (a == 1 || b == 1) return 1;
    if (a == 0 && b == 0) return 0;
    return kX;
  }
  static std::uint8_t v_xor(std::uint8_t a, std::uint8_t b) {
    if (a == kX || b == kX) return kX;
    return a ^ b;
  }
  static std::uint8_t v_mux(std::uint8_t s, std::uint8_t lo, std::uint8_t hi) {
    if (s == 0) return lo;
    if (s == 1) return hi;
    // Select unknown: output known only if both branches agree.
    return (lo != kX && lo == hi) ? lo : kX;
  }

  bool is_d(NetId net) const {
    return good_[net] != kX && faulty_[net] != kX && good_[net] != faulty_[net];
  }

  void imply(const Fault& fault) {
    const Netlist& nl = frame_->netlist();
    std::fill(good_.begin(), good_.end(), kX);
    std::fill(faulty_.begin(), faulty_.end(), kX);
    for (std::size_t i = 0; i < input_nets_.size(); ++i) {
      good_[input_nets_[i]] = input_values_[i];
      faulty_[input_nets_[i]] = input_values_[i];
    }
    // Constant cells are sources outside the topological order.
    for (CellId id = 0; id < nl.cell_count(); ++id) {
      const CellType t = nl.cell(id).type;
      if (t == CellType::Const0 || t == CellType::Const1) {
        const std::uint8_t v = t == CellType::Const1 ? 1 : 0;
        good_[nl.cell(id).out] = v;
        faulty_[nl.cell(id).out] = v;
      }
    }
    const std::uint8_t sa = fault.stuck_at ? 1 : 0;
    if (faulty_[fault.net] != kX || input_of_net_[fault.net] != kNpos) {
      faulty_[fault.net] = sa;
    }
    // A single forward pass in topological order suffices (no backward
    // implication — PODEM only assigns at inputs).
    for (const CellId id : nl.combinational_order()) {
      const Cell& c = nl.cell(id);
      if (c.type == CellType::Output) {
        continue;
      }
      auto eval_one = [&](const std::vector<std::uint8_t>& v) -> std::uint8_t {
        const auto& f = c.fanin;
        switch (c.type) {
          case CellType::Buf: return v[f[0]];
          case CellType::Not: return v_not(v[f[0]]);
          case CellType::And2: return v_and(v[f[0]], v[f[1]]);
          case CellType::Or2: return v_or(v[f[0]], v[f[1]]);
          case CellType::Xor2: return v_xor(v[f[0]], v[f[1]]);
          case CellType::Nand2: return v_not(v_and(v[f[0]], v[f[1]]));
          case CellType::Nor2: return v_not(v_or(v[f[0]], v[f[1]]));
          case CellType::Xnor2: return v_not(v_xor(v[f[0]], v[f[1]]));
          case CellType::Mux2: return v_mux(v[f[0]], v[f[1]], v[f[2]]);
          case CellType::Const0: return 0;
          case CellType::Const1: return 1;
          default: return kX;
        }
      };
      good_[c.out] = eval_one(good_);
      faulty_[c.out] = eval_one(faulty_);
      if (c.out == fault.net) {
        faulty_[c.out] = sa;
      }
    }
  }

  bool detected() const {
    const Netlist& nl = frame_->netlist();
    for (const NetId po : frame_->po_nets()) {
      if (is_d(po)) {
        return true;
      }
    }
    for (const CellId flop : frame_->flops()) {
      if (is_d(nl.cell(flop).fanin[0])) {
        return true;
      }
    }
    return false;
  }

  bool activation_impossible(const Fault& fault) const {
    const std::uint8_t sa = fault.stuck_at ? 1 : 0;
    return good_[fault.net] == sa;
  }

  /// A D-frontier gate: output X in either machine, some input carrying D.
  bool on_frontier(const Cell& c) const {
    if (c.type == CellType::Output || c.out == kNullNet) {
      return false;
    }
    if (!(good_[c.out] == kX || faulty_[c.out] == kX)) {
      return false;
    }
    return std::any_of(c.fanin.begin(), c.fanin.end(),
                       [&](NetId in) { return is_d(in); });
  }

  bool propagation_impossible(const Fault& fault) const {
    // Fault must be activated (good side definite and != sa) for this check.
    if (good_[fault.net] == kX) {
      return false;
    }
    const Netlist& nl = frame_->netlist();
    for (const CellId id : nl.combinational_order()) {
      if (on_frontier(nl.cell(id))) {
        return false;  // live D-frontier gate
      }
    }
    return !detected();
  }

  Objective pick_objective(const Fault& fault) const {
    Objective objective;
    // Phase 1: activate the fault.
    if (good_[fault.net] == kX) {
      objective.valid = true;
      objective.net = fault.net;
      objective.value = !fault.stuck_at;
      return objective;
    }
    // Phase 2: advance the D-frontier — pick the first frontier gate and set
    // one of its X inputs to the gate's non-controlling value.
    const Netlist& nl = frame_->netlist();
    for (const CellId id : nl.combinational_order()) {
      const Cell& c = nl.cell(id);
      if (!on_frontier(c)) {
        continue;
      }
      for (std::size_t pin = 0; pin < c.fanin.size(); ++pin) {
        const NetId in = c.fanin[pin];
        if (good_[in] != kX || faulty_[in] != kX) {
          continue;
        }
        objective.valid = true;
        objective.net = in;
        switch (c.type) {
          case CellType::And2:
          case CellType::Nand2:
            objective.value = true;
            break;
          case CellType::Or2:
          case CellType::Nor2:
            objective.value = false;
            break;
          case CellType::Mux2:
            // Select the side carrying the D.
            objective.value = pin == 0 ? !is_d(c.fanin[1]) : false;
            break;
          default:
            objective.value = false;  // XOR-family: any definite value
            break;
        }
        return objective;
      }
    }
    return objective;  // invalid — caller backtracks
  }

  /// Walk an objective back to an unassigned (pseudo-)input; returns the
  /// input *index* into the pattern and the value to assign.
  std::pair<std::size_t, bool> backtrace(const Objective& objective) const {
    const Netlist& nl = frame_->netlist();
    NetId net = objective.net;
    bool value = objective.value;
    for (;;) {
      if (input_of_net_[net] != kNpos) {
        return {input_of_net_[net], value};
      }
      const CellId drv = nl.driver(net);
      RETSCAN_CHECK(drv != kNullCell, "ReferencePodem::backtrace: undriven net");
      const Cell& c = nl.cell(drv);
      // Choose the first X input to keep walking through.
      NetId next = kNullNet;
      for (const NetId in : c.fanin) {
        if (good_[in] == kX) {
          next = in;
          break;
        }
      }
      RETSCAN_CHECK(next != kNullNet, "ReferencePodem::backtrace: no X path to inputs");
      if (c.type == CellType::Not || c.type == CellType::Nand2 || c.type == CellType::Nor2) {
        value = !value;  // Buf/And/Or/Xor-family/Mux2: keep value
      }
      net = next;
    }
  }

  const CombinationalFrame* frame_;
  std::size_t max_backtracks_;
  std::vector<std::uint8_t> good_;
  std::vector<std::uint8_t> faulty_;
  std::vector<std::uint8_t> input_values_;  // per pattern index: 0/1/X
  std::vector<NetId> input_nets_;           // pattern index -> net
  std::vector<std::size_t> input_of_net_;   // net -> pattern index or npos
};

}  // namespace retscan::bench
