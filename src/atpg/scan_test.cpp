#include "atpg/scan_test.hpp"

#include <algorithm>
#include <bit>

#include "scan/scan_io.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {

/// Split a frame pattern's PPI section into per-chain load data plus direct
/// assignments for flops outside the chains (monitor storage).
struct PpiSplit {
  std::vector<BitVec> chain_data;
  std::vector<std::pair<CellId, bool>> other_flops;
};

PpiSplit split_ppi(const CombinationalFrame& frame, const ScanChains& chains,
                   const BitVec& pattern) {
  PpiSplit split;
  split.chain_data.assign(chains.chain_count(), BitVec(chains.length()));
  const std::size_t pi_count = frame.pi_nets().size();
  const auto& flops = frame.flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    const bool value = pattern.get(pi_count + i);
    const auto it = chains.position_of.find(flops[i]);
    if (it != chains.position_of.end()) {
      split.chain_data[it->second.first].set(it->second.second, value);
    } else {
      split.other_flops.emplace_back(flops[i], value);
    }
  }
  return split;
}

void apply_pis(Simulator& sim, const CombinationalFrame& frame, const BitVec& pattern) {
  const auto& pis = frame.pi_nets();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    sim.set_input(pis[i], pattern.get(i));
  }
}

/// Compare the observable response against the good machine. POs are read
/// pre-capture; flop PPOs are read from the post-capture states.
bool response_matches(Simulator& sim, const CombinationalFrame& frame,
                      const BitVec& good) {
  const auto& pos = frame.po_nets();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (sim.net_value(pos[i]) != good.get(i)) {
      return false;
    }
  }
  return true;
}

bool captured_matches(Simulator& sim, const CombinationalFrame& frame, const BitVec& good) {
  const std::size_t po_count = frame.po_nets().size();
  const auto& flops = frame.flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    if (sim.flop_state(flops[i]) != good.get(po_count + i)) {
      return false;
    }
  }
  return true;
}

/// Per-lane view of a 64-pattern batch: chain load data and direct flop
/// assignments transposed into lane words.
struct PackedPpiSplit {
  // chain_words[c][p] = lane word destined for chain c, position p.
  std::vector<std::vector<LaneWord>> chain_words;
  std::vector<std::pair<CellId, LaneWord>> other_flops;
};

/// `pattern_words` is pack_lanes(batch): one lane word per pattern bit (PIs
/// first, then PPIs — the CombinationalFrame layout).
PackedPpiSplit packed_split_ppi(const CombinationalFrame& frame, const ScanChains& chains,
                                const std::vector<LaneWord>& pattern_words) {
  PackedPpiSplit split;
  split.chain_words.assign(chains.chain_count(),
                           std::vector<LaneWord>(chains.length(), 0));
  const std::size_t pi_count = frame.pi_nets().size();
  const auto& flops = frame.flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    const LaneWord word = pattern_words[pi_count + i];
    const auto it = chains.position_of.find(flops[i]);
    if (it != chains.position_of.end()) {
      split.chain_words[it->second.first][it->second.second] = word;
    } else {
      split.other_flops.emplace_back(flops[i], word);
    }
  }
  return split;
}

/// Capture the batch and return the per-lane mismatch mask against the
/// good-machine lane words (POs read pre-capture, flop PPOs post-capture).
LaneWord capture_and_check_packed(PackedSim& sim, const CombinationalFrame& frame,
                                  NetId se_net, const std::vector<LaneWord>& pattern_words,
                                  std::size_t count,
                                  const std::vector<std::uint64_t>& good_words) {
  const auto& pis = frame.pi_nets();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    sim.set_input(pis[i], pattern_words[i]);
  }
  sim.set_input_all(se_net, false);
  sim.eval();
  LaneWord mismatch = 0;
  const auto& pos = frame.po_nets();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    mismatch |= sim.net_lanes(pos[i]) ^ good_words[i];
  }
  sim.step();
  const auto& flops = frame.flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    mismatch |= sim.flop_lanes(flops[i]) ^ good_words[pos.size() + i];
  }
  return mismatch & lane_mask(count);
}

}  // namespace

ScanTestResult apply_scan_test(Simulator& sim, const ScanChains& chains,
                               const CombinationalFrame& frame,
                               const std::vector<BitVec>& patterns) {
  ScanTestResult result;
  for (const BitVec& pattern : patterns) {
    const BitVec good = frame.good_response(pattern);
    const PpiSplit split = split_ppi(frame, chains, pattern);

    // Shift phase (se asserted inside scan_load).
    if (chains.retain != kNullNet) {
      sim.set_input(chains.retain, false);
    }
    scan_load(sim, chains, split.chain_data);
    sim.set_flop_states(split.other_flops);

    // Capture phase: functional inputs from the pattern, se released.
    apply_pis(sim, frame, pattern);
    sim.set_input(chains.se, false);
    sim.eval();
    bool ok = response_matches(sim, frame, good);
    sim.step();
    ok = ok && captured_matches(sim, frame, good);

    ++result.patterns_applied;
    if (!ok) {
      ++result.mismatches;
    }
  }
  return result;
}

ScanTestResult apply_scan_test(PackedSim& sim, const ScanChains& chains,
                               const CombinationalFrame& frame,
                               const std::vector<BitVec>& patterns) {
  ScanTestResult result;
  const std::size_t l = chains.length();
  for (std::size_t base = 0; base < patterns.size(); base += PackedSim::lane_count()) {
    const std::size_t count =
        std::min<std::size_t>(PackedSim::lane_count(), patterns.size() - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    const std::vector<std::uint64_t> good = frame.good_response_words(batch);
    const std::vector<LaneWord> pattern_words = pack_lanes(batch);
    const PackedPpiSplit split = packed_split_ppi(frame, chains, pattern_words);

    // Shift phase: every lane loads its own pattern, one chain bit per lane
    // per cycle; the bit destined for position l-1 enters first.
    if (chains.retain != kNullNet) {
      sim.set_input_all(chains.retain, false);
    }
    sim.set_input_all(chains.se, true);
    for (std::size_t t = 0; t < l; ++t) {
      for (std::size_t c = 0; c < chains.chain_count(); ++c) {
        sim.set_input(chains.si[c], split.chain_words[c][l - 1 - t]);
      }
      sim.step();
    }
    for (const auto& [flop, word] : split.other_flops) {
      sim.set_flop_lanes(flop, word);
    }
    sim.refresh();

    const LaneWord mismatch =
        capture_and_check_packed(sim, frame, chains.se, pattern_words, count, good);
    result.patterns_applied += count;
    result.mismatches += static_cast<std::size_t>(std::popcount(mismatch));
  }
  return result;
}

ScanTestResult apply_test_mode_scan_test(RetentionSession& session,
                                         const ProtectedDesign& design,
                                         const CombinationalFrame& frame,
                                         std::span<const BitVec> patterns) {
  ScanTestResult result;
  Simulator& sim = session.sim();
  const ScanChains& chains = design.chains();
  const TestModeConfig& test = design.test_config();
  const std::size_t l = design.chain_length();
  const std::size_t group_len = test.concatenated_length(l);
  const NetId test_mode = design.netlist().find_net("test_mode");

  for (const BitVec& pattern : patterns) {
    const BitVec good = frame.good_response(pattern);
    const PpiSplit split = split_ppi(frame, chains, pattern);

    // Build per-test-group serial streams: long-chain index j corresponds
    // to chain groups[g][j / l], position j % l; the bit destined for the
    // largest index must enter first.
    sim.set_input(chains.se, true);
    sim.set_input(test_mode, true);
    if (chains.retain != kNullNet) {
      sim.set_input(chains.retain, false);
    }
    for (std::size_t t = 0; t < group_len; ++t) {
      for (std::size_t g = 0; g < test.groups.size(); ++g) {
        const std::size_t j = group_len - 1 - t;
        const std::size_t chain = test.groups[g][j / l];
        sim.set_input(design.netlist().find_net("tsi" + std::to_string(g)),
                      split.chain_data[chain].get(j % l));
      }
      sim.step();
    }
    sim.set_flop_states(split.other_flops);

    // Capture with all scan/monitor controls at their constrained values.
    apply_pis(sim, frame, pattern);
    sim.set_input(chains.se, false);
    sim.eval();
    bool ok = response_matches(sim, frame, good);
    sim.step();
    ok = ok && captured_matches(sim, frame, good);

    ++result.patterns_applied;
    if (!ok) {
      ++result.mismatches;
    }
  }
  return result;
}

namespace {

/// Packed test-mode delivery over patterns [first, first + count): one
/// shard of the pooled delivery. Batch loading settles into per-call state,
/// so concurrent shards can share one frame.
ScanTestResult run_test_mode_packed_range(const ProtectedDesign& design,
                                          const CombinationalFrame& frame,
                                          const std::vector<BitVec>& patterns,
                                          std::size_t first, std::size_t total) {
  ScanTestResult result;
  PackedSim sim(design.netlist());
  const ScanChains& chains = design.chains();
  const TestModeConfig& test = design.test_config();
  const std::size_t l = design.chain_length();
  const std::size_t group_len = test.concatenated_length(l);
  const NetId test_mode = design.netlist().find_net("test_mode");
  std::vector<NetId> tsi(test.groups.size());
  for (std::size_t g = 0; g < test.groups.size(); ++g) {
    tsi[g] = design.netlist().find_net("tsi" + std::to_string(g));
  }

  for (std::size_t base = first; base < first + total;
       base += PackedSim::lane_count()) {
    const std::size_t count =
        std::min<std::size_t>(PackedSim::lane_count(), first + total - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    const std::vector<std::uint64_t> good = frame.good_response_words(batch);
    const std::vector<LaneWord> pattern_words = pack_lanes(batch);
    const PackedPpiSplit split = packed_split_ppi(frame, chains, pattern_words);

    // Per-test-group serial streams, one pattern per lane: long-chain index
    // j maps to chain groups[g][j / l], position j % l; the bit for the
    // largest index enters first.
    sim.set_input_all(chains.se, true);
    sim.set_input_all(test_mode, true);
    if (chains.retain != kNullNet) {
      sim.set_input_all(chains.retain, false);
    }
    for (std::size_t t = 0; t < group_len; ++t) {
      const std::size_t j = group_len - 1 - t;
      for (std::size_t g = 0; g < test.groups.size(); ++g) {
        const std::size_t chain = test.groups[g][j / l];
        sim.set_input(tsi[g], split.chain_words[chain][j % l]);
      }
      sim.step();
    }
    for (const auto& [flop, word] : split.other_flops) {
      sim.set_flop_lanes(flop, word);
    }
    sim.refresh();

    const LaneWord mismatch =
        capture_and_check_packed(sim, frame, chains.se, pattern_words, count, good);
    result.patterns_applied += count;
    result.mismatches += static_cast<std::size_t>(std::popcount(mismatch));
  }
  return result;
}

}  // namespace

std::size_t test_mode_shard_size(std::size_t shard_size) {
  // Whole 64-lane batches, so every shard plan forms the same batches.
  const std::size_t lanes = PackedSim::lane_count();
  return std::max(lanes, (shard_size == 0 ? 256 : shard_size) / lanes * lanes);
}

ScanTestResult apply_test_mode_scan_test_packed(const ProtectedDesign& design,
                                                const CombinationalFrame& frame,
                                                const std::vector<BitVec>& patterns,
                                                ThreadPool& pool, std::size_t shard_size,
                                                const parallel::RunControls& controls) {
  const parallel::ShardReport<ScanTestResult> loop = parallel::run_shards<ScanTestResult>(
      pool, patterns.size(), test_mode_shard_size(shard_size), controls,
      [&](const parallel::ShardRange& shard) {
        return run_test_mode_packed_range(design, frame, patterns, shard.first, shard.count);
      });
  ScanTestResult result = loop.merged;
  result.shards = loop;
  return result;
}

}  // namespace retscan
