#include "atpg/podem.hpp"

#include <bit>
#include <limits>

#include "util/error.hpp"

namespace retscan {

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
constexpr std::uint8_t kX = Podem::kX;  // input_values_ encoding: 0, 1 or X

using Tri = Podem::Tri;
constexpr std::uint8_t kGood = 1;
constexpr std::uint8_t kFaulty = 2;
constexpr std::uint8_t kBoth = kGood | kFaulty;
constexpr Tri kZero{0, kBoth};
constexpr Tri kOne{kBoth, 0};

Tri tri_of(std::uint8_t value) { return value == kX ? Tri{} : value ? kOne : kZero; }
std::uint8_t known(Tri t) { return t.one | t.zero; }
bool good_x(Tri t) { return (known(t) & kGood) == 0; }
/// Both machines definite and different: D or D'.
bool is_d(Tri t) { return known(t) == kBoth && (t.one == kGood || t.one == kFaulty); }

/// Operand count of an op; the unused operand fields read slot 0.
unsigned arity(CompiledOp op) {
  switch (op) {
    case CompiledOp::Buf:
    case CompiledOp::Not: return 1;
    case CompiledOp::Mux2: return 3;
    default: return 2;
  }
}

std::uint32_t operand(const CompiledInstr& in, unsigned pin) {
  return pin == 0 ? in.in0 : pin == 1 ? in.in1 : in.in2;
}

}  // namespace

Podem::Podem(const CombinationalFrame& frame, std::size_t max_backtracks)
    : compiled_(frame.netlist().compiled()),
      max_backtracks_(max_backtracks),
      input_slots_(frame.input_slots()),
      obs_slots_(frame.observable_slots()) {
  const Netlist& nl = frame.netlist();
  const std::vector<CompiledInstr>& instrs = compiled_->instrs();
  const std::size_t slots = compiled_->slot_count();
  source_count_ = static_cast<std::uint32_t>(slots - instrs.size());
  for (std::uint32_t i = 0; i < instrs.size(); ++i) {
    RETSCAN_CHECK(instrs[i].out == source_count_ + i,
                  "Podem: compiled stream does not write slots in order");
  }

  input_of_slot_.assign(slots, kNpos);
  for (std::size_t i = 0; i < input_slots_.size(); ++i) {
    input_of_slot_[input_slots_[i]] = i;
  }

  // Baseline: everything X but constants and constrained inputs. Latch
  // outputs stay X; backtrace walks through them to the latch's fanin.
  // The frame knows the Const1 sources; the cell walk adds what it does
  // not: Const0 sources and the held fan-in of latches.
  baseline_.assign(slots, Tri{});
  for (const std::uint32_t s : frame.const1_slots()) {
    baseline_[s] = kOne;
  }
  held_fanin_.assign(source_count_, {});
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.out == kNullNet) {
      continue;
    }
    const std::uint32_t s = compiled_->slot(c.out);
    if (s >= source_count_ || input_of_slot_[s] != kNpos) {
      continue;
    }
    if (c.type == CellType::Const0) {
      baseline_[s] = kZero;
    }
    for (const NetId in : c.fanin) {
      held_fanin_[s].push_back(compiled_->slot(in));
    }
  }
  baseline_inputs_.assign(frame.pattern_width(), kX);
  for (const auto& [index, value] : frame.constraints()) {
    baseline_inputs_[index] = value ? 1 : 0;
    baseline_[input_slots_[index]] = tri_of(baseline_inputs_[index]);
  }
  for (const CompiledInstr& in : instrs) {
    baseline_[in.out] = CompiledNetlist::eval_instr(in, baseline_.data());
  }
  frontier_.assign((instrs.size() + 63) / 64, 0);
}

Tri Podem::forced(Tri t) const {
  const std::uint8_t faulty = stuck_ ? kFaulty : 0;
  return {static_cast<std::uint8_t>((t.one & kGood) | faulty),
          static_cast<std::uint8_t>((t.zero & kGood) | (kFaulty ^ faulty))};
}

void Podem::assign(std::size_t input, std::uint8_t value) {
  input_values_[input] = value;
  const std::uint32_t s = input_slots_[input];
  values_[s] = s == fault_slot_ ? forced(tri_of(value)) : tri_of(value);
  dirty_.push_back(s);
}

bool Podem::store(const CompiledInstr& in) {
  Tri v = CompiledNetlist::eval_instr(in, values_.data());
  if (in.out == fault_slot_) {
    v = forced(v);
  }
  const bool changed = !(v == values_[in.out]);
  values_[in.out] = v;

  // D-frontier: output X in either machine and some operand carrying D.
  bool live = false;
  if (known(v) != kBoth) {
    for (unsigned pin = 0; pin < arity(in.op) && !live; ++pin) {
      live = is_d(values_[operand(in, pin)]);
    }
  }
  const std::uint32_t i = in.out - source_count_;
  std::uint64_t& word = frontier_[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (live != ((word & bit) != 0)) {
    word ^= bit;
    frontier_size_ = live ? frontier_size_ + 1 : frontier_size_ - 1;
  }
  return changed;
}

void Podem::imply() {
  compiled_->eval_event(dirty_, events_, kUnbounded,
                        [this](const CompiledInstr& in) { return store(in); });
  dirty_.clear();
}

bool Podem::detected() const {
  for (const std::uint32_t s : obs_slots_) {
    if (is_d(values_[s])) {
      return true;
    }
  }
  return false;
}

bool Podem::propagation_impossible() const {
  // Fault must be activated (good side definite and != sa) for this check;
  // a live D-frontier gate keeps hope alive.
  if (good_x(values_[fault_slot_]) || frontier_size_ > 0) {
    return false;
  }
  return !detected();
}

Podem::Objective Podem::pick_objective() const {
  Objective objective;
  // Phase 1: activate the fault.
  if (good_x(values_[fault_slot_])) {
    objective.valid = true;
    objective.slot = fault_slot_;
    objective.value = stuck_ == 0;
    return objective;
  }
  // Phase 2: advance the D-frontier — pick the first frontier gate and set
  // one of its X inputs to the gate's non-controlling value.
  const std::vector<CompiledInstr>& instrs = compiled_->instrs();
  for (std::size_t w = 0; w < frontier_.size(); ++w) {
    for (std::uint64_t bits = frontier_[w]; bits != 0; bits &= bits - 1) {
      const CompiledInstr& in = instrs[w * 64 + std::countr_zero(bits)];
      for (unsigned pin = 0; pin < arity(in.op); ++pin) {
        const std::uint32_t s = operand(in, pin);
        if (known(values_[s]) != 0) {
          continue;
        }
        objective.valid = true;
        objective.slot = s;
        switch (in.op) {
          case CompiledOp::And2:
          case CompiledOp::Nand2:
            objective.value = true;
            break;
          case CompiledOp::Mux2:
            // Select the side carrying the D.
            objective.value = pin == 0 && !is_d(values_[in.in1]);
            break;
          default:
            objective.value = false;  // Or/Nor, XOR-family: any definite value
            break;
        }
        return objective;
      }
    }
  }
  return objective;  // invalid — caller backtracks
}

std::pair<std::size_t, bool> Podem::backtrace(const Objective& objective) const {
  const std::vector<CompiledInstr>& instrs = compiled_->instrs();
  std::uint32_t s = objective.slot;
  bool value = objective.value;
  // An acyclic walk visits each slot at most once; a latch whose output
  // feeds its own input through X logic would otherwise loop forever.
  for (std::size_t steps = 0;; ++steps) {
    RETSCAN_CHECK(steps < values_.size(), "Podem::backtrace: X loop through a latch");
    if (input_of_slot_[s] != kNpos) {
      return {input_of_slot_[s], value};
    }
    // Walk through the first operand that is X in the good machine.
    std::uint32_t next = kNoSlot;
    if (s >= source_count_) {
      const CompiledInstr& in = instrs[s - source_count_];
      for (unsigned pin = 0; pin < arity(in.op) && next == kNoSlot; ++pin) {
        if (good_x(values_[operand(in, pin)])) {
          next = operand(in, pin);
        }
      }
      if (in.op == CompiledOp::Not || in.op == CompiledOp::Nand2 ||
          in.op == CompiledOp::Nor2) {
        value = !value;  // Buf/And/Or/Xor-family/Mux2: keep value
      }
    } else {
      for (const std::uint32_t in : held_fanin_[s]) {
        if (good_x(values_[in])) {
          next = in;
          break;
        }
      }
    }
    RETSCAN_CHECK(next != kNoSlot, "Podem::backtrace: no X path to inputs");
    s = next;
  }
}

PodemResult Podem::generate(const Fault& fault, Rng& rng) {
  PodemSearch found = search(fault);
  if (found.result.success) {
    found.result.pattern = fill(found.cube, rng);
  }
  return found.result;
}

BitVec Podem::fill(const std::vector<std::uint8_t>& cube, Rng& rng) {
  BitVec pattern(cube.size());
  for (std::size_t i = 0; i < cube.size(); ++i) {
    pattern.set(i, cube[i] == kX ? rng.next_bool(0.5) : cube[i] == 1);
  }
  return pattern;
}

PodemSearch Podem::search(const Fault& fault) {
  PodemSearch found;
  PodemResult& result = found.result;
  values_ = baseline_;
  input_values_ = baseline_inputs_;
  std::fill(frontier_.begin(), frontier_.end(), 0);
  frontier_size_ = 0;
  dirty_.clear();

  // Inject the fault: the faulty machine holds the stuck value at the
  // site. (On a latch output, which stays X in the good machine, the
  // forced value can never produce a D: three-valued simulation is
  // monotone, so wherever the good machine is definite the faulty one
  // agrees with it.)
  fault_slot_ = compiled_->slot(fault.net);
  stuck_ = fault.stuck_at ? 1 : 0;
  values_[fault_slot_] = forced(values_[fault_slot_]);
  dirty_.push_back(fault_slot_);
  imply();

  struct Decision {
    std::size_t input;
    bool flipped;
  };
  std::vector<Decision> stack;

  const std::size_t iteration_limit = 20000;
  for (std::size_t iteration = 0; iteration < iteration_limit; ++iteration) {
    if (detected()) {
      result.success = true;
      found.cube = input_values_;
      return found;
    }

    const Tri site = values_[fault_slot_];
    const bool activation_impossible = (stuck_ ? site.one : site.zero) & kGood;
    const bool conflict = activation_impossible || propagation_impossible();
    Objective objective;
    if (!conflict) {
      objective = pick_objective();
    }
    if (conflict || !objective.valid) {
      // Backtrack chronologically.
      for (;;) {
        if (stack.empty()) {
          result.untestable = result.backtracks <= max_backtracks_;
          result.aborted = !result.untestable;
          return found;
        }
        Decision& top = stack.back();
        if (!top.flipped) {
          top.flipped = true;
          assign(top.input, input_values_[top.input] == 1 ? 0 : 1);
          ++result.backtracks;
          break;
        }
        assign(top.input, kX);
        stack.pop_back();
      }
      if (result.backtracks > max_backtracks_) {
        result.aborted = true;
        return found;
      }
      imply();
      continue;
    }

    const auto [input, value] = backtrace(objective);
    assign(input, value ? 1 : 0);
    stack.push_back(Decision{input, false});
    imply();
  }
  result.aborted = true;
  return found;
}

}  // namespace retscan
