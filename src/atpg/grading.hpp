#pragma once

// The one fault-grading driver behind every fault model's simulator
// (stuck-at, transition-delay, bridging, sequential). Internal to
// src/atpg/: callers use the *_fault_simulate entry points.

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "parallel/shard_loop.hpp"
#include "util/lanes.hpp"
#include "util/thread_pool.hpp"

namespace retscan::grading {

/// Lane blocks needed to hold `tests` patterns / pattern pairs / sequences.
inline std::size_t block_count(std::size_t tests) {
  return (tests + kLaneBlockBits - 1) / kLaneBlockBits;
}

/// Grade `fault_count` faults over `blocks` lane blocks of kLaneBlockBits
/// tests each. A model supplies only what differs between fault models:
///
///   void prepare(ThreadPool&);   // per-run set-up, once, before any shard
///   Shard shard(first, last) const;   // per-shard workspace, built by the
///                                     // worker that runs faults [first, last)
///   LaneBlock detect(fault, block, Shard&) const;   // lane t set iff test
///                                     // block*kLaneBlockBits + t detects
///
/// The fault list is cut into shards of `fault_shard` faults (0 → 1) and
/// run on the shard loop (parallel::run_shards), which owns cancellation,
/// progress and the shard tally. Each shard walks the blocks in order and
/// drops a fault at its first detecting block, so detected_by[i] is the
/// first detecting test and a pure function of (fault, tests) — identical
/// at any thread count and shard size. Shards write disjoint detected_by
/// slots; their detection counts are summed in shard order. `detect` is a
/// template call and inlines into the loop.
template <typename Model>
FaultSimResult grade(Model& model, std::size_t fault_count, std::size_t blocks,
                     ThreadPool& pool, std::size_t fault_shard,
                     const parallel::RunControls& controls) {
  FaultSimResult result;
  result.total_faults = fault_count;
  result.detected_by.assign(fault_count, FaultSimResult::npos);
  if (blocks != 0) {
    model.prepare(pool);
  }
  const parallel::ShardReport<std::size_t> loop = parallel::run_shards<std::size_t>(
      pool, fault_count, std::max<std::size_t>(fault_shard, 1), controls,
      [&](const parallel::ShardRange& range) {
        std::size_t detected = 0;
        if (blocks == 0) {
          return detected;  // nothing to grade, but the loop still tallies
        }
        auto workspace = model.shard(range.first, range.first + range.count);
        std::vector<std::size_t> live(range.count);
        std::iota(live.begin(), live.end(), range.first);
        for (std::size_t block = 0; block < blocks && !live.empty(); ++block) {
          std::size_t kept = 0;
          for (const std::size_t fi : live) {
            const LaneBlock mask = model.detect(fi, block, workspace);
            if (block_any(mask)) {
              result.detected_by[fi] = block * kLaneBlockBits + block_first_lane(mask);
              ++detected;
            } else {
              live[kept++] = fi;
            }
          }
          live.resize(kept);
        }
        return detected;
      });
  result.detected = loop.merged;
  result.shards = loop;
  return result;
}

/// Load and settle patterns[offset, offset + count) as block_count(count)
/// lane-block batches across `pool`; workers then share them read-only.
std::vector<CombinationalFrame::LoadedPatternBatch> load_blocks(
    const CombinationalFrame& frame, const std::vector<BitVec>& patterns,
    std::size_t offset, std::size_t count, ThreadPool& pool);

/// Per-shard workspace of the combinational models: the shard's cones
/// (indexed by fault - first) and a private evaluation workspace.
template <typename Cone>
struct ConeShard {
  std::size_t first = 0;
  std::vector<Cone> cones;
  CombinationalFrame::Workspace workspace;
};

/// Shard workspace over cached single-site cones (stuck-at, transition).
using SiteConeShard = ConeShard<const CombinationalFrame::FaultCone*>;

/// Resolve the cached single-site cone of faults[first, last), building any
/// not yet cached. A run resolves every cone once on the calling thread
/// first, so shard workers only take cache hits, once per fault at shard
/// start, and the cone-cache lock stays out of the block loop.
template <typename FaultT>
SiteConeShard site_cones(const CombinationalFrame& frame, const std::vector<FaultT>& faults,
                         std::size_t first, std::size_t last) {
  SiteConeShard shard;
  shard.first = first;
  shard.cones.reserve(last - first);
  for (std::size_t fi = first; fi < last; ++fi) {
    shard.cones.push_back(&frame.fault_cone(faults[fi].net));
  }
  return shard;
}

}  // namespace retscan::grading
