#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "testbench/harness.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace retscan {
class CampaignJournal;
}  // namespace retscan

namespace retscan::parallel {

/// One contiguous chunk of a campaign: trials [first, first + count).
struct ShardRange {
  std::size_t index = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Fixed-size decomposition of `total` trials into shards of `shard_size`
/// (last shard takes the remainder). The plan depends only on
/// (total, shard_size) — never on the thread count — which is what makes
/// merged campaign results bit-identical at any parallelism.
std::vector<ShardRange> plan_shards(std::size_t total, std::size_t shard_size);

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

/// Durability + service hooks threaded through a campaign run. All
/// optional; the default (nullptrs) reproduces the plain uninterruptible
/// single-campaign run exactly. None of them can change the statistics —
/// they interrupt or observe the shard loop, never reseed it.
struct RunControls {
  /// Polled before each shard; a cancelled token skips the shards that have
  /// not started (completed shards still merge — partial statistics).
  const CancelToken* cancel = nullptr;
  /// Checkpoint journal: completed shards are appended (and flushed) as
  /// they finish; shards already in the journal are merged from it instead
  /// of rerun. Shard-order determinism makes the merge bit-exact.
  CampaignJournal* journal = nullptr;
  /// Progress observer, called after each shard completes (run or resumed
  /// — never for cancel-skipped shards) with (shards_done, shard_count).
  /// Invoked from pool threads — must be thread-safe and cheap; exceptions
  /// must not escape.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Campaign result plus the parallel execution shape, for BENCH_*.json.
struct CampaignReport {
  ValidationStats stats;
  /// Settle-schedule telemetry merged across shards (always zero for the
  /// behavioral tier). Lives beside — never inside — ValidationStats: the
  /// statistics must stay bit-identical across schedules and thread counts,
  /// while telemetry legitimately varies with execution shape.
  ScheduleTelemetry telemetry;
  unsigned threads = 1;
  std::size_t shard_count = 0;
  /// Complete unless a RunControls cancel token fired mid-campaign; then
  /// stats/telemetry cover shards_completed shards, not the whole count.
  CampaignStatus status = CampaignStatus::Complete;
  std::size_t shards_completed = 0;
  /// Subset of shards_completed merged from the journal instead of run.
  std::size_t shards_resumed = 0;
};

/// Shard-map-reduce driver for statistical campaigns: shards a trial count
/// into independent chunks, runs each with its own seed stream on the
/// runner's ThreadPool, and merges the per-shard statistics in shard order.
/// `threads == 1` reproduces the serial path (same shards, same seeds), so
/// the thread count is purely a throughput knob.
class CampaignRunner {
 public:
  explicit CampaignRunner(const CampaignOptions& options = {});
  ~CampaignRunner();

  unsigned threads() const { return pool_.size(); }
  ThreadPool& pool() { return pool_; }

  /// Generic deterministic map-reduce: fn(shard) → Result, merged with
  /// operator+= in shard index order. Result must be value-initializable.
  template <typename Result, typename ShardFn>
  Result map_reduce(std::size_t total, std::size_t shard_size, ShardFn&& fn) {
    const std::vector<ShardRange> shards = plan_shards(total, shard_size);
    std::vector<Result> partial(shards.size());
    pool_.parallel_for(shards.size(),
                       [&](std::size_t s) { partial[s] = fn(shards[s]); });
    Result merged{};
    for (const Result& p : partial) {
      merged += p;
    }
    return merged;
  }

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
