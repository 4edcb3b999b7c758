#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "parallel/shard_loop.hpp"
#include "testbench/harness.hpp"
#include "util/thread_pool.hpp"

namespace retscan::parallel {

/// Seed of shard `index` in a campaign seeded with `campaign_seed`: an
/// independent Rng stream per shard, so a shard's trials are a pure
/// function of (campaign_seed, index).
std::uint64_t shard_seed(std::uint64_t campaign_seed, std::uint64_t index);

/// Behavioral-tier (FastTestbench) trials per shard when a campaign names
/// none. Large enough to amortize per-shard testbench construction, small
/// enough that the pool balances tail shards.
inline constexpr std::size_t kBehavioralShardSize = 4096;
/// Gate-level trials per shard when a campaign names none; any shard size is
/// rounded up to whole 64-lane batches so a shard never runs a partially
/// filled PackedSim batch mid-campaign.
inline constexpr std::size_t kStructuralShardSize = 256;

struct CampaignOptions {
  /// 0 → RETSCAN_THREADS env override, else hardware_concurrency().
  unsigned threads = 0;
};

/// Campaign result plus the parallel execution shape, for BENCH_*.json.
/// The tally (shard_count, status, shards_completed, shards_resumed) is the
/// shard loop's.
struct CampaignReport : ShardTally {
  ValidationStats stats;
  /// Settle-schedule telemetry merged across shards (always zero for the
  /// behavioral tier). Lives beside — never inside — ValidationStats: the
  /// statistics must stay bit-identical across schedules and thread counts,
  /// while telemetry legitimately varies with execution shape.
  ScheduleTelemetry telemetry;
  unsigned threads = 1;
};

/// Validation campaigns on the shard loop (run_shards): each shard runs its
/// trials with its own seed stream on the runner's ThreadPool, and the
/// per-shard statistics merge in shard order. `threads == 1` reproduces the
/// serial path (same shards, same seeds), so the thread count is purely a
/// throughput knob.
class CampaignRunner {
 public:
  explicit CampaignRunner(const CampaignOptions& options = {});
  ~CampaignRunner();

  unsigned threads() const { return pool_.size(); }
  ThreadPool& pool() { return pool_; }

  /// Behavioral-tier validation campaign (FastTestbench::run) across the
  /// pool. shard_size == 0 → kBehavioralShardSize.
  CampaignReport run_fast(const ValidationConfig& config, std::size_t count,
                          std::size_t shard_size = 0,
                          const RunControls& controls = {});

  /// Gate-level packed campaign (StructuralTestbench::run_packed): each
  /// shard simulates its own design copy with 64 corruption trials per
  /// batch. shard_size == 0 → kStructuralShardSize.
  CampaignReport run_structural_packed(const ValidationConfig& config,
                                       std::size_t count,
                                       std::size_t shard_size = 0,
                                       const RunControls& controls = {});

  /// The scalar oracle of run_structural_packed (StructuralTestbench::run,
  /// one trial at a time) on the same shard plan, seeds and workspaces.
  CampaignReport run_structural(const ValidationConfig& config, std::size_t count,
                                std::size_t shard_size = 0,
                                const RunControls& controls = {});

 private:
  // Persistent per-thread workspaces: warm testbenches (compiled design +
  // sessions + cone caches) kept across shards and campaigns, reseeded per
  // shard instead of rebuilt. In the steady state one testbench per pool
  // thread circulates; results stay bit-identical because reseed() restores
  // the exact fresh-construction state (see StructuralTestbench::reseed).
  struct WorkspacePool;

  ThreadPool pool_;
  std::unique_ptr<WorkspacePool> workspaces_;
};

}  // namespace retscan::parallel
