#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "sim/compiled_netlist.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace retscan {

/// Outcome of one PODEM run for a single fault.
struct PodemResult {
  bool success = false;
  /// Exhausted the decision space: the fault is provably untestable in the
  /// combinational frame (redundant logic).
  bool untestable = false;
  /// Exceeded the backtrack budget (status unknown).
  bool aborted = false;
  BitVec pattern;  ///< valid when success
  std::size_t backtracks = 0;

  bool operator==(const PodemResult&) const = default;
};

/// PODEM's search for one fault before X-fill: the verdict with an empty
/// `pattern`, and on success the test cube, one entry per pattern input:
/// 0, 1 or Podem::kX (left unassigned).
struct PodemSearch {
  PodemResult result;
  std::vector<std::uint8_t> cube;
};

/// Path-Oriented DEcision Making test generator (Goel 1981) over the
/// combinational frame, run on the frame's compiled instruction stream.
///
/// The good and faulty machines are simulated together in {0,1,X}: every
/// value slot holds one dual-rail Tri (machine 0 = good, machine 1 =
/// faulty), and gates evaluate through CompiledNetlist::eval_instr — the
/// same kernel the simulators use, so PODEM has no truth tables of its own.
/// A D (good=1/faulty=0) or D' at any primary or pseudo-primary output
/// means the pattern detects the fault. Decisions are made only at
/// (pseudo-)primary inputs, with objective/backtrace steering and
/// chronological backtracking.
///
/// Implication is incremental: a target starts from an all-X baseline
/// (constants and constrained inputs only, settled once in the
/// constructor), and each decision, flip or un-assignment re-settles only
/// the changed inputs' fanout through CompiledNetlist::eval_event. The
/// D-frontier is a bitset over instruction indices, kept current by the
/// same worklist, so the conflict test is an emptiness check and the
/// objective is the first set bit. Index order is topological order, which
/// makes every decision — and therefore every backtrack, X-fill draw and
/// pattern — identical to a full re-simulation per decision (the reference
/// implementation in bench/reference_podem.hpp, checked by
/// tests/test_podem_diff.cpp).
///
/// The frame's input constraints are read at construction.
///
/// generate() is search() then fill(). search() restarts every target from
/// the baseline and draws no random numbers, so its outcome is a pure
/// function of (frame, fault, max_backtracks): searches for different
/// faults may run on different instances and threads, and a caller that
/// fills their cubes from one Rng in a fixed order draws what a serial
/// run of generate() would.
class Podem {
 public:
  /// A test cube entry the search left unassigned.
  static constexpr std::uint8_t kX = 2;

  Podem(const CombinationalFrame& frame, std::size_t max_backtracks = 500);

  PodemResult generate(const Fault& fault, Rng& rng);
  PodemSearch search(const Fault& fault);
  /// The pattern of a test cube: each X replaced by one rng.next_bool(0.5)
  /// draw, in input order.
  static BitVec fill(const std::vector<std::uint8_t>& cube, Rng& rng);

  /// Three-valued value of one slot in both machines: bit 0 of `one`/`zero`
  /// is the good machine, bit 1 the faulty one; a machine with neither bit
  /// set holds X.
  struct Tri {
    std::uint8_t one = 0;
    std::uint8_t zero = 0;

    friend Tri operator~(Tri a) { return {a.zero, a.one}; }
    friend Tri operator&(Tri a, Tri b) {
      return {static_cast<std::uint8_t>(a.one & b.one),
              static_cast<std::uint8_t>(a.zero | b.zero)};
    }
    friend Tri operator|(Tri a, Tri b) {
      return {static_cast<std::uint8_t>(a.one | b.one),
              static_cast<std::uint8_t>(a.zero & b.zero)};
    }
    friend Tri operator^(Tri a, Tri b) {
      return {static_cast<std::uint8_t>((a.one & b.zero) | (a.zero & b.one)),
              static_cast<std::uint8_t>((a.one & b.one) | (a.zero & b.zero))};
    }
    /// sel ? b : a, plus the consensus term: an X select still yields the
    /// branches' value when both agree (the generic (s&b)|(~s&a) gives X).
    friend Tri lane_mux(Tri sel, Tri a, Tri b) {
      return {static_cast<std::uint8_t>((sel.one & b.one) | (sel.zero & a.one) |
                                        (a.one & b.one)),
              static_cast<std::uint8_t>((sel.one & b.zero) | (sel.zero & a.zero) |
                                        (a.zero & b.zero))};
    }
    bool operator==(const Tri&) const = default;
  };

 private:
  struct Objective {
    bool valid = false;
    std::uint32_t slot = 0;
    bool value = false;
  };

  /// `t` with the faulty machine holding the target's stuck-at value.
  Tri forced(Tri t) const;
  /// Write one input's slot and queue it for the next settle.
  void assign(std::size_t input, std::uint8_t value);
  /// Settle everything queued since the last call.
  void imply();
  /// eval_event store callback: evaluate, force the faulty machine at the
  /// fault site, refresh the instruction's frontier bit.
  bool store(const CompiledInstr& in);
  bool detected() const;
  bool propagation_impossible() const;
  Objective pick_objective() const;
  /// Walk an objective back to an unassigned (pseudo-)input; returns the
  /// input *index* into the pattern and the value to assign.
  std::pair<std::size_t, bool> backtrace(const Objective& objective) const;

  std::shared_ptr<const CompiledNetlist> compiled_;
  std::size_t max_backtracks_;
  std::uint32_t source_count_ = 0;  // slot of instruction i = source_count_ + i

  std::vector<Tri> baseline_;                // settled all-X start of a target
  std::vector<std::uint8_t> baseline_inputs_;
  std::vector<std::uint32_t> input_slots_;   // pattern index -> slot
  std::vector<std::size_t> input_of_slot_;   // slot -> pattern index or npos
  std::vector<std::uint32_t> obs_slots_;     // POs, then flop D captures
  // Per source slot: the fanin slots of its driver when that driver is a
  // latch (held X, backtrace walks through it); empty otherwise.
  std::vector<std::vector<std::uint32_t>> held_fanin_;

  // Per-target state.
  std::vector<Tri> values_;                  // slot-indexed, both machines
  std::vector<std::uint8_t> input_values_;   // per pattern index: 0/1/X
  std::vector<std::uint64_t> frontier_;      // bit i: instruction i on the D-frontier
  std::size_t frontier_size_ = 0;
  std::vector<std::uint32_t> dirty_;
  CompiledNetlist::EventWorkspace events_;
  std::uint32_t fault_slot_ = 0;
  std::uint8_t stuck_ = 0;                   // stuck-at value of the target
};

}  // namespace retscan
