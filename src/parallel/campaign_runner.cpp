#include "parallel/campaign_runner.hpp"

#include <mutex>

#include "sim/packed_sim.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace retscan::parallel {

std::uint64_t shard_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  return Rng::derive_stream(campaign_seed, index);
}

namespace {

/// True when two campaign configurations differ only in seed — the
/// condition under which a warm testbench can be reseeded instead of
/// rebuilt (reseeding per shard is the whole point). Every other field
/// counts, through the defaulted operator==.
bool same_campaign_shape(ValidationConfig a, const ValidationConfig& b) {
  a.seed = b.seed;
  return a == b;
}

}  // namespace

/// Free-lists of warm testbenches, one tier per testbench type (scalar and
/// packed structural runs share one). acquire() hands out a reseeded warm
/// instance when the shape matches (the steady state: one instance per pool
/// thread), otherwise constructs fresh; release() returns it for the next
/// shard. A shape change retires the old pool — campaigns against a
/// different design rebuild once, as before.
struct CampaignRunner::WorkspacePool {
  template <typename Bench>
  struct Tier {
    std::mutex mutex;
    bool shaped = false;
    ValidationConfig shape;
    std::vector<std::unique_ptr<Bench>> free_list;

    std::unique_ptr<Bench> acquire(const ValidationConfig& config) {
      std::unique_ptr<Bench> warm;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!shaped || !same_campaign_shape(shape, config)) {
          free_list.clear();
          shape = config;
          shaped = true;
        } else if (!free_list.empty()) {
          warm = std::move(free_list.back());
          free_list.pop_back();
        }
      }
      if (warm) {
        warm->reseed(config.seed);  // outside the lock: resets a simulator
        return warm;
      }
      return std::make_unique<Bench>(config);
    }

    void release(std::unique_ptr<Bench> bench) {
      const std::lock_guard<std::mutex> lock(mutex);
      free_list.push_back(std::move(bench));
    }
  };

  Tier<FastTestbench> fast;
  Tier<StructuralTestbench> structural;
};

CampaignRunner::CampaignRunner(const CampaignOptions& options)
    : pool_(options.threads),
      workspaces_(std::make_unique<WorkspacePool>()) {}

CampaignRunner::~CampaignRunner() = default;

namespace {

/// Per-shard result pair: campaign statistics plus the shard's drained
/// schedule telemetry, merged in shard order like everything else.
struct ShardOutcome {
  ValidationStats stats;
  ScheduleTelemetry telemetry;
  ShardOutcome& operator+=(const ShardOutcome& other) {
    stats += other.stats;
    telemetry += other.telemetry;
    return *this;
  }
};

/// ShardOutcome ⇄ JournalRecord: the journal stores raw u64 counters (it is
/// a util-layer facility with no view of the testbench types), so the
/// flattening lives here, field by field in declaration order.
JournalRecord encode_outcome(std::uint64_t shard_index,
                             const ShardOutcome& outcome) {
  JournalRecord record;
  record.shard_index = shard_index;
  const ValidationStats& s = outcome.stats;
  const std::uint64_t stats[JournalRecord::kStatsWords] = {
      s.sequences,  s.errors_injected,       s.sequences_with_errors,
      s.detected,   s.corrected,             s.flagged_uncorrectable,
      s.comparator_mismatches, s.silent_corruptions};
  const ScheduleTelemetry& t = outcome.telemetry;
  const std::uint64_t telemetry[JournalRecord::kTelemetryWords] = {
      t.event_sweeps, t.full_sweeps,  t.full_sweep_fallbacks,
      t.event_instrs, t.sweep_instrs, t.instr_capacity};
  for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
    record.stats[i] = stats[i];
  }
  for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
    record.telemetry[i] = telemetry[i];
  }
  return record;
}

ShardOutcome decode_outcome(const JournalRecord& record) {
  ShardOutcome outcome;
  ValidationStats& s = outcome.stats;
  s.sequences = record.stats[0];
  s.errors_injected = record.stats[1];
  s.sequences_with_errors = record.stats[2];
  s.detected = record.stats[3];
  s.corrected = record.stats[4];
  s.flagged_uncorrectable = record.stats[5];
  s.comparator_mismatches = record.stats[6];
  s.silent_corruptions = record.stats[7];
  ScheduleTelemetry& t = outcome.telemetry;
  t.event_sweeps = record.telemetry[0];
  t.full_sweeps = record.telemetry[1];
  t.full_sweep_fallbacks = record.telemetry[2];
  t.event_instrs = record.telemetry[3];
  t.sweep_instrs = record.telemetry[4];
  t.instr_capacity = record.telemetry[5];
  return outcome;
}

/// Validation on the one shard loop: each shard derives its seed stream,
/// runs `trials` on a pooled workspace of `tier` (acquire — reseed or build
/// — run, release; a throwing run simply drops the instance, so the pool
/// never sees a half-run testbench), and the journal stores the flattened
/// outcomes. The token reaches the testbench, which checks it per trial.
template <typename Bench>
using TrialsFn = ValidationStats (Bench::*)(std::size_t, const CancelToken*);

template <typename Tier, typename Bench>
CampaignReport run_campaign(CampaignRunner& runner, Tier& tier, TrialsFn<Bench> trials,
                            const ValidationConfig& config, std::size_t count,
                            std::size_t shard_size, const RunControls& controls) {
  const ShardReport<ShardOutcome> loop = run_shards<ShardOutcome>(
      runner.pool(), count, shard_size, controls,
      [&](const ShardRange& shard) {
        ValidationConfig shard_config = config;
        shard_config.seed = shard_seed(config.seed, shard.index);
        std::unique_ptr<Bench> bench = tier.acquire(shard_config);
        // Discard acquire-time counters (construction / reseed resync
        // settles) so a shard's telemetry covers exactly its own run.
        // Without this, warm and fresh workspaces report different counts
        // for the same shard — and which shards land on warm instances is a
        // scheduling accident, which would make the merged telemetry vary
        // across thread counts and break the kill/resume byte-identical
        // contract.
        (void)bench->take_telemetry();
        ShardOutcome outcome;
        outcome.stats = ((*bench).*trials)(shard.count, controls.cancel);
        outcome.telemetry = bench->take_telemetry();
        tier.release(std::move(bench));
        return outcome;
      },
      ShardCodec<ShardOutcome>{encode_outcome, decode_outcome});
  return CampaignReport{loop, loop.merged.stats, loop.merged.telemetry, runner.threads()};
}

/// The gate-level shard plan both structural tiers share: whole 64-lane
/// batches, kStructuralShardSize when the campaign names none.
std::size_t structural_shard_size(std::size_t shard_size) {
  const std::size_t lanes = PackedSim::lane_count();
  const std::size_t size = shard_size != 0 ? shard_size : kStructuralShardSize;
  return (size + lanes - 1) / lanes * lanes;
}

}  // namespace

CampaignReport CampaignRunner::run_fast(const ValidationConfig& config,
                                        std::size_t count, std::size_t shard_size,
                                        const RunControls& controls) {
  return run_campaign(*this, workspaces_->fast, &FastTestbench::run, config, count,
                      shard_size != 0 ? shard_size : kBehavioralShardSize, controls);
}

CampaignReport CampaignRunner::run_structural_packed(const ValidationConfig& config,
                                                     std::size_t count,
                                                     std::size_t shard_size,
                                                     const RunControls& controls) {
  return run_campaign(*this, workspaces_->structural, &StructuralTestbench::run_packed,
                      config, count, structural_shard_size(shard_size), controls);
}

CampaignReport CampaignRunner::run_structural(const ValidationConfig& config,
                                              std::size_t count, std::size_t shard_size,
                                              const RunControls& controls) {
  return run_campaign(*this, workspaces_->structural, &StructuralTestbench::run, config,
                      count, structural_shard_size(shard_size), controls);
}

}  // namespace retscan::parallel
