#pragma once

// The one shard loop every campaign kind runs on. It sits below the
// testbench layer so src/atpg can drive it too.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"

namespace retscan::parallel {

/// One contiguous chunk of a campaign: trials [first, first + count).
struct ShardRange {
  std::size_t index = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Fixed-size decomposition of `total` trials into shards of `shard_size`
/// (last shard takes the remainder; 0 → one shard). The plan depends only
/// on (total, shard_size) — never on the thread count — which is what makes
/// merged campaign results bit-identical at any parallelism.
inline std::vector<ShardRange> plan_shards(std::size_t total, std::size_t shard_size) {
  std::vector<ShardRange> shards;
  if (total == 0) {
    return shards;
  }
  if (shard_size == 0) {
    shard_size = total;
  }
  shards.reserve((total + shard_size - 1) / shard_size);
  for (std::size_t first = 0; first < total; first += shard_size) {
    shards.push_back({shards.size(), first, std::min(shard_size, total - first)});
  }
  return shards;
}

/// Durability + service hooks threaded through a campaign run. All
/// optional; the default (nullptrs) reproduces the plain uninterruptible
/// single-campaign run exactly. None of them can change the statistics —
/// they interrupt or observe the shard loop, never reseed it.
struct RunControls {
  /// Polled before each shard (and each validation trial): a cancelled token
  /// skips unstarted shards and stops those in flight (completed shards
  /// still merge — partial statistics).
  const CancelToken* cancel = nullptr;
  /// Checkpoint journal: completed shards are appended (and flushed) as
  /// they finish; shards already in the journal are merged from it instead
  /// of rerun. Shard-order determinism makes the merge bit-exact. Only a
  /// loop given a ShardCodec journals; validate() refuses a checkpoint on
  /// the kinds without one.
  CampaignJournal* journal = nullptr;
  /// Progress observer, called after each shard completes (run or resumed
  /// — never for cancel-skipped shards) with (shards_done, shard_count).
  /// Invoked from pool threads — must be thread-safe and cheap; exceptions
  /// must not escape.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// How far a shard loop got: the execution shape every kind reports.
struct ShardTally {
  std::size_t shard_count = 0;
  /// Complete unless the cancel token fired mid-loop; then the merged
  /// outcome covers shards_completed shards, not the whole plan.
  CampaignStatus status = CampaignStatus::Complete;
  std::size_t shards_completed = 0;
  /// Subset of shards_completed merged from the journal instead of run.
  std::size_t shards_resumed = 0;
};

/// Status of a loop stopped short under `cancel`: Timeout when its deadline
/// fired, else Cancelled (a request, SIGINT, or a Cancelled thrown mid-shard).
inline CampaignStatus stopped_status(const CancelToken* cancel) {
  return cancel != nullptr && cancel->why() == CancelReason::Deadline
             ? CampaignStatus::Timeout
             : CampaignStatus::Cancelled;
}

/// Outcome ⇄ JournalRecord flattening for loops that checkpoint.
template <typename Outcome>
struct ShardCodec {
  JournalRecord (*encode)(std::uint64_t shard_index, const Outcome&) = nullptr;
  Outcome (*decode)(const JournalRecord&) = nullptr;
};

/// A loop's merged outcome plus its tally.
template <typename Outcome>
struct ShardReport : ShardTally {
  Outcome merged{};
};

/// The shard loop: cut `total` trials into plan_shards(total, shard_size),
/// run run_shard(ShardRange) → Outcome for each across `pool`, and merge the
/// completed outcomes with operator+= in shard-index order. Per shard, in
/// order: a journaled shard merges from the journal (even after a cancel);
/// a cancelled token skips it; the `shard.run` failpoint fires; a Cancelled
/// thrown out of the shard leaves it incomplete rather than failing the
/// loop; a completed shard is appended to the journal and reported to
/// `progress`. Because the plan and the merge order never depend on which
/// shards ran, resumed or were skipped, results are bit-identical at any
/// thread count and across kill/resume.
template <typename Outcome, typename RunShard>
ShardReport<Outcome> run_shards(ThreadPool& pool, std::size_t total,
                                std::size_t shard_size, const RunControls& controls,
                                RunShard&& run_shard,
                                const ShardCodec<Outcome>& codec = {}) {
  CampaignJournal* const journal = codec.decode != nullptr ? controls.journal : nullptr;
  const std::vector<ShardRange> shards = plan_shards(total, shard_size);
  if (journal != nullptr) {
    journal->bind_plan(total, shard_size, shards.size());
  }
  std::vector<std::optional<Outcome>> partial(shards.size());
  std::atomic<std::size_t> resumed{0};
  std::atomic<std::size_t> settled{0};
  const auto settle = [&](std::size_t s, Outcome outcome) {
    partial[s] = std::move(outcome);
    if (controls.progress) {
      controls.progress(settled.fetch_add(1, std::memory_order_relaxed) + 1,
                        shards.size());
    }
  };
  pool.parallel_for(shards.size(), [&](std::size_t s) {
    if (journal != nullptr) {
      if (const std::optional<JournalRecord> record = journal->find(shards[s].index)) {
        resumed.fetch_add(1, std::memory_order_relaxed);
        settle(s, codec.decode(*record));
        return;
      }
    }
    if (controls.cancel != nullptr && controls.cancel->cancelled()) {
      return;  // skipped: merged below as "not completed"
    }
    failpoint("shard.run");
    std::optional<Outcome> outcome;
    try {
      outcome.emplace(run_shard(shards[s]));
    } catch (const Cancelled&) {
      return;  // interrupted mid-shard (settle-loop cancellation point)
    }
    if (journal != nullptr) {
      journal->append(codec.encode(shards[s].index, *outcome));
    }
    settle(s, std::move(*outcome));
  });

  ShardReport<Outcome> report;
  report.shard_count = shards.size();
  for (const std::optional<Outcome>& outcome : partial) {
    if (outcome) {
      report.merged += *outcome;
      ++report.shards_completed;
    }
  }
  report.shards_resumed = resumed.load(std::memory_order_relaxed);
  if (report.shards_completed != shards.size()) {
    report.status = stopped_status(controls.cancel);
  }
  return report;
}

}  // namespace retscan::parallel
