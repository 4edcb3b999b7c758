// `retention` workload: the paper's Section IV validation on the 32×32 FIFO
// with 80 retention scan chains and Hamming(7,4)+CRC monitors, 4 threads.
// One pass = behavioral single-random (experiment 1) + behavioral
// multiple-burst (experiment 2) + a structural-tier single-random campaign
// with the checkpoint journal armed.

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "retscan/campaign.hpp"
#include "retscan/session.hpp"
#include "retscan/sim.hpp"
#include "util/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace retscan;

constexpr unsigned kThreads = 4;
constexpr std::size_t kBehavioralSequences = 16384;
// At paper scale a behavioral campaign has thousands of shards; at the
// default 4096 this pass would have 4, one per thread, so every pass would
// wait on the slowest vCPU of a shared host. 32 shards keep the pool
// balancing as a long campaign does.
constexpr std::size_t kBehavioralShard = 512;
constexpr std::size_t kStructuralSequences = 16384;  // 64 shards of 256
constexpr std::size_t kSetupsPerPass = 15;
constexpr std::size_t kMinSetups = 100;
constexpr std::size_t kSpeedupPairs = 2;

ProtectionConfig paper_protection() {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  return protection;
}

struct PassSpecs {
  CampaignSpec single;
  CampaignSpec burst;
  CampaignSpec structural;
};

PassSpecs make_specs(std::uint64_t seed, const std::string& journal, double scale) {
  const auto count = [scale](std::size_t n) {
    return static_cast<std::size_t>(static_cast<double>(n) * scale);
  };
  PassSpecs specs;
  specs.single.kind = CampaignKind::Validation;
  specs.single.seed = derive_seed(seed, 1);
  specs.single.threads = kThreads;
  specs.single.sequences = count(kBehavioralSequences);
  specs.single.mode = InjectionMode::SingleRandom;
  specs.single.shard_size = kBehavioralShard;
  specs.burst = specs.single;
  specs.burst.seed = derive_seed(seed, 2);
  specs.burst.mode = InjectionMode::MultipleBurst;
  specs.structural = specs.single;
  specs.structural.seed = derive_seed(seed, 3);
  specs.structural.sequences = count(kStructuralSequences);
  specs.structural.tier = ValidationTier::Structural;
  specs.structural.shard_size = 0;
  specs.structural.checkpoint = journal;
  return specs;
}

struct PassStats {
  ValidationStats single;
  ValidationStats burst;
  ValidationStats structural;
  bool operator==(const PassStats&) const = default;

  std::size_t sequences() const {
    return single.sequences + burst.sequences + structural.sequences;
  }
  std::size_t silent() const {
    return single.silent_corruptions + burst.silent_corruptions +
           structural.silent_corruptions;
  }
  double correction() const {
    const double with_errors = static_cast<double>(
        single.sequences_with_errors + burst.sequences_with_errors +
        structural.sequences_with_errors);
    return static_cast<double>(single.corrected + burst.corrected + structural.corrected) /
           with_errors;
  }
};

/// One pass through the public API, exactly as `retscan run` would drive it.
PassStats run_pass(Session& session, const PassSpecs& specs, Report& report) {
  PassStats stats;
  const auto run = [&](const CampaignSpec& spec, ValidationStats& out) {
    const CampaignResult result = session.run(spec);
    report.check(result.status == CampaignStatus::Complete && result.passed(),
                 std::string("retention campaign ") + to_string(spec.mode) + "/" +
                     to_string(spec.tier) + " verdict");
    out = result.validation;
  };
  run(specs.single, stats.single);
  run(specs.burst, stats.burst);
  run(specs.structural, stats.structural);
  return stats;
}

ValidationConfig validation_config(Session& session, const CampaignSpec& spec) {
  ValidationConfig config;
  config.fifo = session.fifo();
  config.chain_count = session.protection().chain_count;
  config.kind = session.protection().kind;
  config.hamming_r = session.protection().hamming_r;
  config.mode = spec.mode;
  config.burst_size = spec.burst_size;
  config.burst_spread = spec.burst_spread;
  config.seed = spec.seed;
  config.schedule = spec.tier == ValidationTier::Behavioral ? Schedule::Sweep : spec.schedule;
  return config;
}

/// The same pass decomposed into the layer calls Session::run makes, each
/// inside a span: campaign runner → behavioral testbench, journal open,
/// campaign runner → gate-level testbench (journal appends included).
PassStats run_pass_traced(Session& session, const PassSpecs& specs, Tracer& tracer) {
  parallel::CampaignRunner& runner = session.runner();
  Tracer::Scope pass(tracer, "bench.pass");
  PassStats stats;
  {
    Tracer::Scope span(tracer, "testbench.behavioral");
    stats.single =
        runner
            .run_fast(validation_config(session, specs.single), specs.single.sequences,
                      kBehavioralShard)
            .stats;
  }
  {
    Tracer::Scope span(tracer, "testbench.behavioral");
    stats.burst =
        runner
            .run_fast(validation_config(session, specs.burst), specs.burst.sequences,
                      kBehavioralShard)
            .stats;
  }
  std::unique_ptr<CampaignJournal> journal;
  {
    Tracer::Scope span(tracer, "journal.open");
    journal = std::make_unique<CampaignJournal>(
        specs.structural.checkpoint, campaign_fingerprint(specs.structural, session),
        specs.structural.seed, CampaignJournal::Mode::Truncate);
  }
  {
    Tracer::Scope span(tracer, "sim.structural");
    parallel::RunControls controls;
    controls.journal = journal.get();
    stats.structural = runner
                           .run_structural_packed(validation_config(session, specs.structural),
                                                  specs.structural.sequences, 0, controls)
                           .stats;
  }
  return stats;
}

/// Median microseconds per CampaignJournal::append with `shards` records.
double journal_append_us(const std::string& path, std::size_t shards) {
  CampaignJournal journal(path, 1, 1, CampaignJournal::Mode::Truncate);
  journal.bind_plan(shards * 256, 256, shards);
  std::vector<double> times;
  for (std::size_t i = 0; i < shards; ++i) {
    JournalRecord record;
    record.shard_index = i;
    record.stats[0] = i;
    const Clock::time_point t0 = Clock::now();
    journal.append(record);
    times.push_back(seconds_since(t0) * 1e6);
  }
  return summarize(times).median;
}

/// Million lane-gate evaluations per second of CompiledNetlist::eval_full
/// over the protected design, one thread.
double compiled_meps(const Netlist& netlist) {
  const std::shared_ptr<const CompiledNetlist> compiled = netlist.compiled();
  const std::size_t gates = compiled->instrs().size();
  std::vector<LaneBlock> slots(compiled->slot_count(), LaneBlock{});
  Rng rng(7);
  for (LaneBlock& block : slots) {
    for (LaneWord& word : block.w) {
      word = rng.next_u64();
    }
  }
  const std::vector<double> times = repeat_timed(
      [&] {
        for (int i = 0; i < 50; ++i) {
          compiled->eval_full(slots.data());
        }
      },
      1, 0.3, 3, 1000);
  double seconds = 0.0;
  for (const double t : times) {
    seconds += t;
  }
  const double timed_sweeps = static_cast<double>(times.size() * 50);
  return static_cast<double>(gates) * timed_sweeps * static_cast<double>(kLaneBlockBits) /
         seconds / 1e6;
}

}  // namespace

void run_retention(const Options& opts, Report& report, Tracer& tracer) {
  const std::string journal = opts.work + "/retention.journal";
  const PassSpecs specs = make_specs(opts.seed, journal, 1.0);
  const FifoSpec fifo{32, 32};
  SessionOptions session_options;
  session_options.threads = kThreads;

  // --- setup: session + protected synthesis + compile + campaign pool ------
  // One set-up before the passes (its session runs them), the others
  // between passes, so the median samples the whole run.
  std::vector<double> setup_times;
  std::vector<double> synth_times;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<Session>(fifo, paper_protection(), session_options);
    const Clock::time_point t1 = Clock::now();
    fresh->design();
    synth_times.push_back(seconds_since(t1));
    fresh->netlist().compiled();
    fresh->runner();
    setup_times.push_back(seconds_since(t0));
    return fresh;
  };
  const std::unique_ptr<Session> session = set_up();
  // The other samples each start on the next core in turn.
  const auto sample_setup = [&] {
    move_to_cpu(setup_times.size());
    set_up();
  };

  // --- warm-up: per-thread workspaces (gate-level design copies) ----------
  run_pass(*session, make_specs(opts.seed, journal, 0.0625), report);

  // --- timed passes ------------------------------------------------------
  // The first pass's statistics are the reference every later pass (API or
  // layer calls) must reproduce exactly.
  std::optional<PassStats> reference;
  const auto checked = [&](const PassStats& stats, const char* what) {
    if (!reference) {
      reference = stats;
      report.check(stats.silent() == 0, "retention: zero silent corruptions");
    } else {
      report.check(stats == *reference, what);
    }
  };
  const PassTimes times = run_passes(
      opts, 3,
      [&] {
        checked(run_pass(*session, specs, report),
                "retention: statistics repeat across passes");
      },
      [&] {
        checked(run_pass_traced(*session, specs, tracer),
                "retention: layer-call pass equals the API pass");
      },
      [&] {
        for (std::size_t rep = 0; rep < kSetupsPerPass; ++rep) {
          sample_setup();
        }
      });
  const std::vector<double>& pass_times = times.untraced;
  const Summary pass = summarize(pass_times);
  std::vector<double> rates;
  for (const double t : pass_times) {
    rates.push_back(static_cast<double>(reference->sequences()) / t);
  }
  report.set("run_s", pass.median);
  // Peak memory of the passes and of the set-ups run between them; the
  // top-up set-ups and the oracle come after.
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("work_per_s", summarize(rates).median);
  report.set("coverage", reference->correction());
  report.note(describe("retention pass (time-to-verdict)", pass, "s"));
  report.note("retention seq_per_s: " + std::to_string(summarize(rates).median) + " over " +
              std::to_string(reference->sequences()) + " sequences per pass");

  while (setup_times.size() < kMinSetups) {
    sample_setup();
  }
  report.set("setup_s", summarize(setup_times).median);
  report.note(describe("retention setup (session + synth + compile + pool)",
                       summarize(setup_times), "s"));
  report.set("core.synth_s", summarize(synth_times).median);

  // --- oracle: a one-shot Session::run of the same specs -----------------
  {
    Session oneshot(fifo, paper_protection(), session_options);
    report.check(run_pass(oneshot, specs, report) == *reference,
                 "retention: statistics equal a one-shot Session::run");
  }

  if (opts.trace) {
    // Per-layer costs, each from direct calls into its layer.
    parallel::CampaignOptions serial_options;
    serial_options.threads = 1;
    parallel::CampaignRunner serial(serial_options);
    parallel::CampaignRunner& pooled = session->runner();
    const ValidationConfig behavioral = validation_config(*session, specs.single);
    const ValidationConfig structural = validation_config(*session, specs.structural);
    serial.run_fast(behavioral, kBehavioralShard);  // warm the serial workspaces
    serial.run_structural_packed(structural, 256);  // (gate-level design copy)

    std::vector<double> serial_times;
    const Summary behavioral_speedup = interleaved_ratio(
        [&] { serial.run_fast(behavioral, specs.single.sequences, kBehavioralShard); },
        [&] { pooled.run_fast(behavioral, specs.single.sequences, kBehavioralShard); },
        kSpeedupPairs, &serial_times);
    report.set("parallel.speedup_t4.behavioral", behavioral_speedup.median);
    report.set("testbench.behavioral_us_per_seq",
               summarize(serial_times).median * 1e6 /
                   static_cast<double>(specs.single.sequences));
    serial_times.clear();
    const Summary structural_speedup = interleaved_ratio(
        [&] { serial.run_structural_packed(structural, specs.structural.sequences); },
        [&] { pooled.run_structural_packed(structural, specs.structural.sequences); },
        kSpeedupPairs, &serial_times);
    report.set("parallel.speedup_t4.structural", structural_speedup.median);
    report.set("testbench.structural_us_per_seq",
               summarize(serial_times).median * 1e6 /
                   static_cast<double>(specs.structural.sequences));

    const std::size_t shards = (specs.structural.sequences + 255) / 256;
    const double append_us = journal_append_us(journal, shards);
    report.set("journal.append_us", append_us);
    report.set("journal.append_us_1000", journal_append_us(journal, 1000));
    report.set("sim.meps", compiled_meps(session->netlist()));

    const Summary traced = summarize(times.traced);
    finish_trace(opts, report, tracer, traced.median / pass.median - 1.0,
                 {describe("untraced passes", pass, "s"),
                  describe("traced passes", traced, "s"),
                  "sim.structural includes " + std::to_string(shards) +
                      " journal appends at a measured median of " +
                      std::to_string(append_us) + " us each."});
  }
}

}  // namespace perfbench
