#pragma once

/// retscan v2 public surface — parallel orchestration layer.
///
/// The thread pool (one fair dispatcher for tasks and parallel_for calls),
/// the one shard loop every campaign kind runs on, and the campaign runner
/// the pooled backends are built on. A Session owns one runner and routes
/// CampaignSpec workloads through it automatically; include this directly
/// only to drive custom sharded workloads by hand. Same seed → same
/// shard plan → bit-identical merged results at any thread count.

#include "parallel/campaign_runner.hpp" // CampaignRunner, shard_seed; run_shards, plan_shards, RunControls
#include "util/cancel.hpp"              // CancelToken, Cancelled, CampaignStatus
#include "util/failpoint.hpp"           // failpoint(), RETSCAN_FAILPOINTS harness
#include "util/journal.hpp"             // CampaignJournal checkpoint/resume
#include "util/thread_pool.hpp"         // ThreadPool
