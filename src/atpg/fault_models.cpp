#include "atpg/fault_models.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_set>

#include "atpg/grading.hpp"
#include "sim/compiled_netlist.hpp"
#include "util/rng.hpp"

namespace retscan {

// --- transition-delay faults ------------------------------------------------

std::vector<TransitionFault> enumerate_transition_faults(const Netlist& netlist) {
  // Same stem universe as stuck-at: SA0 site ↔ slow-to-rise, SA1 ↔
  // slow-to-fall, so coverage numbers are comparable across models.
  std::vector<TransitionFault> faults;
  for (const Fault& fault : enumerate_faults(netlist)) {
    faults.push_back({fault.net, !fault.stuck_at});
  }
  return faults;
}

std::string transition_fault_name(const Netlist& netlist, const TransitionFault& fault) {
  const std::string& name = netlist.net_name(fault.net);
  return (name.empty() ? "net" + std::to_string(fault.net) : name) +
         (fault.slow_to_rise ? "/STR" : "/STF");
}

namespace {

/// Transition-delay grading over launch/capture block pairs (lane k = pattern
/// pair k): capture must detect the stuck-at alias — the net frozen at the
/// transition's initial value — AND the launch pattern must set the net to
/// that initial value.
struct TransitionModel {
  const CombinationalFrame& frame;
  const std::vector<TransitionFault>& faults;
  const std::vector<BitVec>& patterns;
  std::shared_ptr<const CompiledNetlist> compiled;
  std::vector<CombinationalFrame::LoadedPatternBatch> launch;
  std::vector<CombinationalFrame::LoadedPatternBatch> capture;

  void prepare(ThreadPool& pool) {
    (void)grading::site_cones(frame, faults, 0, faults.size());
    const std::size_t pairs = patterns.size() - 1;
    launch = grading::load_blocks(frame, patterns, 0, pairs, pool);
    capture = grading::load_blocks(frame, patterns, 1, pairs, pool);
  }
  grading::SiteConeShard shard(std::size_t first, std::size_t last) const {
    return grading::site_cones(frame, faults, first, last);
  }
  LaneBlock detect(std::size_t fi, std::size_t b, grading::SiteConeShard& shard) const {
    const TransitionFault& fault = faults[fi];
    const LaneBlock detect =
        frame.detect_block({fault.net, !fault.slow_to_rise}, *shard.cones[fi - shard.first],
                           capture[b], shard.workspace);
    const LaneBlock& launch_vals = launch[b].settled[compiled->slot(fault.net)];
    return fault.slow_to_rise ? detect & ~launch_vals : detect & launch_vals;
  }
};

}  // namespace

FaultSimResult transition_fault_simulate(const CombinationalFrame& frame,
                                         const std::vector<TransitionFault>& faults,
                                         const std::vector<BitVec>& patterns,
                                         ThreadPool& pool, std::size_t fault_shard,
                                         const parallel::RunControls& controls) {
  TransitionModel model{frame, faults, patterns, frame.netlist().compiled(), {}, {}};
  const std::size_t pairs = patterns.size() < 2 ? 0 : patterns.size() - 1;
  return grading::grade(model, faults.size(), grading::block_count(pairs), pool,
                        fault_shard, controls);
}

// --- bridging faults --------------------------------------------------------

std::vector<BridgingFault> enumerate_bridging_faults(const Netlist& netlist) {
  std::vector<BridgingFault> faults;
  std::unordered_set<std::uint64_t> seen;
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    const Cell& cell = netlist.cell(id);
    if (cell.type == CellType::Output) {
      continue;
    }
    for (std::size_t i = 0; i < cell.fanin.size(); ++i) {
      for (std::size_t j = i + 1; j < cell.fanin.size(); ++j) {
        const NetId a = std::min(cell.fanin[i], cell.fanin[j]);
        const NetId b = std::max(cell.fanin[i], cell.fanin[j]);
        if (a == b) {
          continue;
        }
        const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
        if (!seen.insert(key).second) {
          continue;
        }
        faults.push_back({a, b, true});
        faults.push_back({a, b, false});
      }
    }
  }
  return faults;
}

std::string bridging_fault_name(const Netlist& netlist, const BridgingFault& fault) {
  const auto label = [&](NetId net) {
    const std::string& name = netlist.net_name(net);
    return name.empty() ? "net" + std::to_string(net) : name;
  };
  return label(fault.a) + "+" + label(fault.b) +
         (fault.wired_and ? "/AND" : "/OR");
}

namespace {

/// Bridging grading: both nets forced to the wired value and their joint
/// fanout cone replayed. Joint cones are ad hoc (pair sites), so each shard
/// builds its own at shard start rather than going through the single-net
/// cone cache.
struct BridgingModel {
  const CombinationalFrame& frame;
  const std::vector<BridgingFault>& faults;
  const std::vector<BitVec>& patterns;
  std::shared_ptr<const CompiledNetlist> compiled;
  std::vector<CombinationalFrame::LoadedPatternBatch> blocks;

  struct Shard : grading::ConeShard<CombinationalFrame::FaultCone> {
    std::vector<LaneBlock> forced = std::vector<LaneBlock>(2);
  };

  void prepare(ThreadPool& pool) {
    blocks = grading::load_blocks(frame, patterns, 0, patterns.size(), pool);
  }
  Shard shard(std::size_t first, std::size_t last) const {
    Shard shard;
    shard.first = first;
    shard.cones.reserve(last - first);
    for (std::size_t fi = first; fi < last; ++fi) {
      shard.cones.push_back(frame.dirty_cone({faults[fi].a, faults[fi].b}));
    }
    return shard;
  }
  LaneBlock detect(std::size_t fi, std::size_t b, Shard& shard) const {
    const BridgingFault& fault = faults[fi];
    const LaneBlock& va = blocks[b].settled[compiled->slot(fault.a)];
    const LaneBlock& vb = blocks[b].settled[compiled->slot(fault.b)];
    // Both nets take the wired value, so the forced vector is order-agnostic
    // with respect to the cone's source slots.
    shard.forced[0] = shard.forced[1] = fault.wired_and ? va & vb : va | vb;
    return frame.replay_dirty(shard.cones[fi - shard.first], shard.forced, blocks[b],
                              shard.workspace);
  }
};

}  // namespace

FaultSimResult bridging_fault_simulate(const CombinationalFrame& frame,
                                       const std::vector<BridgingFault>& faults,
                                       const std::vector<BitVec>& patterns,
                                       ThreadPool& pool, std::size_t fault_shard,
                                       const parallel::RunControls& controls) {
  BridgingModel model{frame, faults, patterns, frame.netlist().compiled(), {}};
  return grading::grade(model, faults.size(), grading::block_count(patterns.size()),
                        pool, fault_shard, controls);
}

// --- sequential multi-cycle stuck-at ----------------------------------------

namespace {

/// Shared context of one sequential fault-simulation run: the frame's slot
/// layout split into machine roles, per-block random primary-input stimulus
/// and the good-machine primary-output trajectory, all a pure function of
/// (netlist, sequences, cycles, seed) so fault shards reproduce identical
/// results at any thread count.
struct SeqContext {
  std::shared_ptr<const CompiledNetlist> compiled;
  std::span<const std::uint32_t> pi_slots;
  std::span<const std::uint32_t> q_slots;   // flop outputs (state)
  std::span<const std::uint32_t> po_slots;
  std::span<const std::uint32_t> d_slots;   // flop D inputs (next state)
  std::span<const std::uint32_t> one_slots; // Const1 sources, forced every cycle
  std::size_t sequences = 0;
  std::size_t cycles = 0;
  std::size_t block_count = 0;
  /// stimulus[b][t * pi_count + i]: lane block of PI i at cycle t.
  std::vector<std::vector<LaneBlock>> stimulus;
  /// good_po[b][t * po_count + p]: good-machine PO p at cycle t.
  std::vector<std::vector<LaneBlock>> good_po;

  std::size_t block_lanes(std::size_t b) const {
    return std::min<std::size_t>(kLaneBlockBits, sequences - b * kLaneBlockBits);
  }
};

/// Advance one machine by one cycle: load the cycle's PIs and constants,
/// settle, optionally clamp a fault slot and re-propagate its cone, record
/// the cycle's primary outputs into `po_out`, then latch next state.
/// POs must be captured before the latch — a PO fed straight by a flop Q
/// shares that Q's slot, and latching first would overwrite the settled
/// (possibly faulty) output with the fault-free next state.
/// `values` carries the state (flop Q slots) across calls.
void seq_step(const SeqContext& ctx, std::vector<LaneBlock>& values, std::size_t b,
              std::size_t t, const CompiledNetlist::Cone* clamp_cone,
              std::uint32_t clamp_slot, const LaneBlock& clamp_value,
              LaneBlock* po_out, std::vector<LaneBlock>& d_scratch) {
  const std::vector<LaneBlock>& stim = ctx.stimulus[b];
  const std::size_t pi_count = ctx.pi_slots.size();
  for (std::size_t i = 0; i < pi_count; ++i) {
    values[ctx.pi_slots[i]] = stim[t * pi_count + i];
  }
  const LaneBlock ones = block_broadcast(true);
  for (const std::uint32_t slot : ctx.one_slots) {
    values[slot] = ones;
  }
  if (clamp_cone != nullptr) {
    values[clamp_slot] = clamp_value;  // source-slot faults must be in before settle
  }
  ctx.compiled->eval_full(values.data());
  if (clamp_cone != nullptr) {
    // Instruction-driven fault sites were recomputed by the sweep: clamp
    // again and re-propagate just the fanout cone (topological order).
    values[clamp_slot] = clamp_value;
    const auto& instrs = ctx.compiled->instrs();
    for (const std::uint32_t idx : clamp_cone->instrs) {
      values[instrs[idx].out] = CompiledNetlist::eval_instr(instrs[idx], values.data());
    }
  }
  for (std::size_t p = 0; p < ctx.po_slots.size(); ++p) {
    po_out[p] = values[ctx.po_slots[p]];
  }
  // Latch: snapshot every D before writing any Q (flop-to-flop paths).
  for (std::size_t f = 0; f < ctx.d_slots.size(); ++f) {
    d_scratch[f] = values[ctx.d_slots[f]];
  }
  for (std::size_t f = 0; f < ctx.q_slots.size(); ++f) {
    values[ctx.q_slots[f]] = d_scratch[f];
  }
}

SeqContext build_seq_context(const CombinationalFrame& frame, std::size_t sequences,
                             std::size_t cycles, std::uint64_t seed) {
  SeqContext ctx;
  ctx.compiled = frame.netlist().compiled();
  const std::span<const std::uint32_t> inputs = frame.input_slots();
  const std::span<const std::uint32_t> observables = frame.observable_slots();
  ctx.pi_slots = inputs.first(frame.pi_nets().size());
  ctx.q_slots = inputs.subspan(frame.pi_nets().size());
  ctx.po_slots = observables.first(frame.po_nets().size());
  ctx.d_slots = observables.subspan(frame.po_nets().size());
  ctx.one_slots = frame.const1_slots();
  ctx.sequences = sequences;
  ctx.cycles = cycles;
  ctx.block_count = grading::block_count(sequences);

  // Stimulus is drawn block by block from independent derived streams, so
  // it is identical however the fault list is later sharded.
  ctx.stimulus.resize(ctx.block_count);
  const std::size_t pi_count = ctx.pi_slots.size();
  for (std::size_t b = 0; b < ctx.block_count; ++b) {
    Rng rng(Rng::derive_stream(seed, b));
    ctx.stimulus[b].resize(cycles * pi_count);
    for (LaneBlock& block : ctx.stimulus[b]) {
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        block.w[w] = rng.next_u64();
      }
    }
  }

  // Good-machine trajectory from the all-zero state.
  ctx.good_po.resize(ctx.block_count);
  const std::size_t po_count = ctx.po_slots.size();
  std::vector<LaneBlock> values(ctx.compiled->slot_count());
  std::vector<LaneBlock> d_scratch(ctx.d_slots.size());
  for (std::size_t b = 0; b < ctx.block_count; ++b) {
    values.assign(values.size(), LaneBlock{});
    ctx.good_po[b].resize(cycles * po_count);
    for (std::size_t t = 0; t < cycles; ++t) {
      seq_step(ctx, values, b, t, nullptr, 0, LaneBlock{},
               ctx.good_po[b].data() + t * po_count, d_scratch);
    }
  }
  return ctx;
}

/// Sequential grading: per block, a full faulty-machine re-simulation of
/// the fault, detected by the per-lane OR of PO differences across all
/// cycles. Each shard builds its faults' clamp cones at shard start.
struct SequentialModel {
  const CombinationalFrame& frame;
  const std::vector<Fault>& faults;
  std::size_t sequences;
  std::size_t cycles;
  std::uint64_t seed;
  SeqContext ctx;

  struct Shard {
    std::size_t first = 0;
    std::vector<CompiledNetlist::Cone> cones;
    std::vector<LaneBlock> values;
    std::vector<LaneBlock> po_scratch;
    std::vector<LaneBlock> d_scratch;
  };

  void prepare(ThreadPool&) { ctx = build_seq_context(frame, sequences, cycles, seed); }
  Shard shard(std::size_t first, std::size_t last) const {
    Shard shard{first, {}, std::vector<LaneBlock>(ctx.compiled->slot_count()),
                std::vector<LaneBlock>(ctx.po_slots.size()),
                std::vector<LaneBlock>(ctx.d_slots.size())};
    shard.cones.reserve(last - first);
    for (std::size_t fi = first; fi < last; ++fi) {
      shard.cones.push_back(ctx.compiled->build_cone(faults[fi].net));
    }
    return shard;
  }
  LaneBlock detect(std::size_t fi, std::size_t b, Shard& shard) const {
    const Fault& fault = faults[fi];
    shard.values.assign(shard.values.size(), LaneBlock{});
    const LaneBlock clamp = block_broadcast(fault.stuck_at);
    const std::uint32_t slot = ctx.compiled->slot(fault.net);
    const std::size_t po_count = ctx.po_slots.size();
    LaneBlock diff{};
    for (std::size_t t = 0; t < ctx.cycles; ++t) {
      seq_step(ctx, shard.values, b, t, &shard.cones[fi - shard.first], slot, clamp,
               shard.po_scratch.data(), shard.d_scratch);
      for (std::size_t p = 0; p < po_count; ++p) {
        diff = diff | (shard.po_scratch[p] ^ ctx.good_po[b][t * po_count + p]);
      }
    }
    return diff & block_lane_mask(ctx.block_lanes(b));
  }
};

}  // namespace

FaultSimResult sequential_fault_simulate(const Netlist& netlist,
                                         const std::vector<Fault>& faults,
                                         std::size_t sequences, std::size_t cycles,
                                         std::uint64_t seed, ThreadPool& pool,
                                         std::size_t fault_shard,
                                         const parallel::RunControls& controls) {
  // The frame supplies the slot layout only; sequential grading never
  // loads a scan pattern.
  const CombinationalFrame frame(netlist);
  SequentialModel model{frame, faults, sequences, cycles, seed, {}};
  const std::size_t blocks = cycles == 0 ? 0 : grading::block_count(sequences);
  return grading::grade(model, faults.size(), blocks, pool, fault_shard, controls);
}

}  // namespace retscan
