// Reproduces the Section IV FPGA validation (Fig. 8 testbench):
//  * experiment 1 — one random error per test sequence: all detected, all
//    corrected, zero comparator mismatches;
//  * experiment 2 — clustered multiple errors per sequence: all detected,
//    none silently accepted; Hamming alone cannot repair the bursts.
// The paper runs 100M sequences on a VirtexII-Pro; the behavioral tier
// reproduces the protocol bit-exactly (proven against the gate-level model
// in the test suite) at a default of 200k sequences (RETSCAN_SEQUENCES
// overrides). A gate-level confirmation pass runs a smaller count.
//
// Campaigns run on the retscan::parallel shard-map-reduce layer: the same
// seed yields bit-identical statistics at every thread count (asserted
// below by re-running experiment 1 serially), and the threads knob
// (RETSCAN_THREADS) multiplies the 64-lane bit-parallel throughput by
// near-linear core scaling — threads/shards/efficiency land in
// BENCH_validation.json.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "measure.hpp"
#include "retscan/parallel.hpp"
#include "retscan/campaign.hpp"
#include "retscan/netlist.hpp"
#include "retscan/serve.hpp"
#include "retscan/sim.hpp"

using namespace retscan;

namespace {
void report(const char* name, const ValidationStats& stats) {
  std::cout << name << ": sequences " << stats.sequences << ", with-errors "
            << stats.sequences_with_errors << ", injected " << stats.errors_injected
            << "\n  detected " << stats.detected << " (rate "
            << 100.0 * stats.detection_rate() << "%), corrected " << stats.corrected
            << " (rate " << 100.0 * stats.correction_rate() << "%)"
            << "\n  flagged-uncorrectable " << stats.flagged_uncorrectable
            << ", comparator mismatches " << stats.comparator_mismatches
            << ", silent corruptions " << stats.silent_corruptions << "\n";
}
}  // namespace

int main() {
  const std::size_t fast_sequences = bench::sequence_budget(200000);
  bool ok = true;
  bench::JsonReport json("validation");

  parallel::CampaignRunner runner;  // RETSCAN_THREADS / hardware_concurrency
  parallel::CampaignRunner serial(parallel::CampaignOptions{.threads = 1});
  const unsigned threads = runner.threads();

  bench::header("Section IV experiment 1 — single error per sequence (behavioral tier)");
  ValidationConfig single;
  single.fifo = FifoSpec{32, 32};
  single.chain_count = 80;
  single.mode = InjectionMode::SingleRandom;
  single.seed = 2024;
  {
    // The serial reference exists to prove determinism and measure scaling;
    // cap it so a paper-scale budget is not dominated by a 1-thread rerun.
    const std::size_t reference_sequences =
        std::min<std::size_t>(fast_sequences, 200000);
    perfbench::Clock::time_point start = perfbench::Clock::now();
    const parallel::CampaignReport serial_run =
        serial.run_fast(single, reference_sequences);
    const double serial_seconds = perfbench::seconds_since(start);
    start = perfbench::Clock::now();
    const parallel::CampaignReport reference_run =
        runner.run_fast(single, reference_sequences);
    const double parallel_seconds = perfbench::seconds_since(start);
    // Full-budget campaign on the pool (identical to reference_run when the
    // budget fits the cap, so skip the rerun then).
    start = perfbench::Clock::now();
    const parallel::CampaignReport run = fast_sequences == reference_sequences
                                             ? reference_run
                                             : runner.run_fast(single, fast_sequences);
    const double full_seconds = fast_sequences == reference_sequences
                                    ? parallel_seconds
                                    : perfbench::seconds_since(start);

    const ValidationStats& stats = run.stats;
    const double rate = static_cast<double>(stats.sequences) / full_seconds;
    const double serial_rate =
        static_cast<double>(serial_run.stats.sequences) / serial_seconds;
    const double speedup = serial_seconds / parallel_seconds;
    const double efficiency = speedup / static_cast<double>(threads);
    report("exp1/fast", stats);
    std::cout << "  throughput " << rate << " sequences/sec on " << threads
              << " threads x " << run.shard_count << " shards (" << speedup
              << "x over 1 thread, efficiency " << 100.0 * efficiency << "%)\n";
    json.set("fast_sequences_per_sec", rate);
    json.set("serial_sequences_per_sec", serial_rate);
    json.set("fast_detection_rate", stats.detection_rate());
    json.set("fast_correction_rate", stats.correction_rate());
    json.set("threads", static_cast<double>(threads));
    json.set("shard_count", static_cast<double>(run.shard_count));
    json.set("reference_sequences", static_cast<double>(reference_sequences));
    json.set("parallel_speedup", speedup);
    json.set("scaling_efficiency", efficiency);

    // Thread scaling curve: the same campaign at 1/2/4/8 pool threads.
    // Statistics must be bit-identical to the serial reference at every
    // point (shard plan is thread-count independent); speedup is against
    // the 1-thread wall clock measured above.
    bench::header("Thread scaling curve (behavioral tier, fixed shard plan)");
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
      parallel::CampaignRunner curve(parallel::CampaignOptions{.threads = n});
      start = perfbench::Clock::now();
      const parallel::CampaignReport curve_run =
          curve.run_fast(single, reference_sequences);
      const double curve_seconds = perfbench::seconds_since(start);
      const double curve_speedup = serial_seconds / curve_seconds;
      const double curve_efficiency = curve_speedup / static_cast<double>(n);
      std::cout << "  " << n << " thread(s): " << curve_seconds << " s, speedup "
                << curve_speedup << "x, efficiency " << 100.0 * curve_efficiency
                << "%\n";
      const std::string suffix = "_t" + std::to_string(n);
      json.set("parallel_speedup" + suffix, curve_speedup);
      json.set("scaling_efficiency" + suffix, curve_efficiency);
      ok = ok && curve_run.stats == serial_run.stats;
    }
    ok = ok && stats.detection_rate() == 1.0 && stats.correction_rate() == 1.0 &&
         stats.silent_corruptions == 0;
    // Determinism across thread counts is part of the contract.
    ok = ok && serial_run.stats == reference_run.stats;
    // Parallel throughput gate: ≥3x on a non-trivial budget when the
    // hardware can actually deliver it — tiny CI smoke budgets are
    // dominated by shard setup; threads beyond hardware_concurrency
    // cannot scale at all; and hardware_concurrency counts logical CPUs,
    // so require ≥8 (≈4 physical cores with SMT) before demanding 3x.
    const unsigned cores = std::thread::hardware_concurrency();
    ok = ok && (threads < 4 || threads > cores || cores < 8 ||
                reference_sequences < 50000 || speedup >= 3.0);
  }

  bench::header("Checkpoint journal overhead (serial, append per shard)");
  {
    // checkpoint_overhead is the durability-gated metric (≤ 1.05 in
    // ci/check_bench_json.py): wall clock of a checkpointed campaign over
    // the identical plain campaign, both serial (no pool scheduling noise),
    // as the median of interleaved pairs, so drift in the host's speed
    // lands on both sides of every ratio. Small shards on purpose — more
    // appends per second of work than the defaults, so the gate bounds the
    // journal's worst side. A fixed 2^20 sequences (2048 appends), whatever
    // RETSCAN_SEQUENCES says, keeps each side at hundreds of ms.
    const std::size_t ck_sequences = std::size_t{1} << 20;
    const std::size_t ck_shard = 512;
    const std::size_t ck_pairs = 5;
    const std::string path = "bench_checkpoint.journal";
    parallel::CampaignReport plain, durable;
    std::vector<double> durable_times;
    const perfbench::Summary overhead = perfbench::interleaved_ratio(
        [&] {
          // Journal construction, creating and mapping the sized file at
          // bind time and every per-shard slot copy are all inside the
          // timed region — the full durability tax.
          std::remove(path.c_str());
          CampaignJournal journal(path, /*fingerprint=*/1, single.seed,
                                  CampaignJournal::Mode::Truncate);
          parallel::RunControls controls;
          controls.journal = &journal;
          durable = serial.run_fast(single, ck_sequences, ck_shard, controls);
        },
        [&] { plain = serial.run_fast(single, ck_sequences, ck_shard); }, ck_pairs,
        &durable_times);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::cout << "checkpoint: " << ck_sequences << " sequences x "
              << durable.shard_count << " shards, journaled run median "
              << perfbench::summarize(durable_times).median << " s\n  "
              << perfbench::describe("overhead (journaled / plain)", overhead, "x")
              << "\n";
    json.set("checkpoint_overhead", overhead.median);
    json.set("checkpoint_shards", static_cast<double>(durable.shard_count));
    // Journaling must not perturb the statistics, only persist them.
    ok = ok && durable.stats == plain.stats &&
         durable.status == CampaignStatus::Complete;
  }

  bench::header("Section IV experiment 2 — clustered multiple errors (behavioral tier)");
  ValidationConfig burst = single;
  burst.mode = InjectionMode::MultipleBurst;
  burst.burst_size = 4;
  burst.burst_spread = 1;
  {
    const ValidationStats stats = runner.run_fast(burst, fast_sequences / 4).stats;
    report("exp2/fast", stats);
    ok = ok && stats.detection_rate() == 1.0 && stats.silent_corruptions == 0;
    ok = ok && stats.correction_rate() < 0.5;  // bursts defeat SEC correction
  }

  bench::header("Gate-level confirmation (structural tier, 32-word FIFO slice)");
  ValidationConfig gate;
  gate.fifo = FifoSpec{32, 2};
  gate.chain_count = 8;
  gate.mode = InjectionMode::SingleRandom;
  gate.seed = 7;
  double scalar_gate_rate = 0.0;
  {
    StructuralTestbench tb(gate);
    perfbench::Clock::time_point start = perfbench::Clock::now();
    const ValidationStats stats = tb.run(40);
    scalar_gate_rate =
        static_cast<double>(stats.sequences) / perfbench::seconds_since(start);
    report("exp1/gate", stats);
    std::cout << "  throughput " << scalar_gate_rate << " sequences/sec\n";
    ok = ok && stats.detection_rate() == 1.0 && stats.correction_rate() == 1.0 &&
         stats.comparator_mismatches == 0;
  }
  gate.mode = InjectionMode::MultipleBurst;
  gate.burst_size = 4;
  gate.burst_spread = 1;
  {
    StructuralTestbench tb(gate);
    const ValidationStats stats = tb.run(20);
    report("exp2/gate", stats);
    ok = ok && stats.detection_rate() == 1.0 && stats.silent_corruptions == 0;
  }

  bench::header("Gate-level packed campaign (64 trials/simulation x " +
                std::to_string(threads) + " threads)");
  gate.mode = InjectionMode::SingleRandom;
  {
    // gate_speedup is the perf-gated metric, so it must stay a pure
    // lane-parallelism ratio (packed vs scalar, both on one thread, one
    // shard — no per-shard testbench construction in the timed region) —
    // machine-independent. The pooled run is reported separately.
    perfbench::Clock::time_point start = perfbench::Clock::now();
    const parallel::CampaignReport packed_serial =
        serial.run_structural_packed(gate, 640, 640);
    const double packed_serial_rate = static_cast<double>(packed_serial.stats.sequences) /
                                      perfbench::seconds_since(start);
    start = perfbench::Clock::now();
    const parallel::CampaignReport run = runner.run_structural_packed(gate, 640, 64);
    const ValidationStats& stats = run.stats;
    const double packed_gate_rate =
        static_cast<double>(stats.sequences) / perfbench::seconds_since(start);
    const double gate_speedup = packed_serial_rate / scalar_gate_rate;
    report("exp1/gate-packed", stats);
    std::cout << "  throughput " << packed_gate_rate << " sequences/sec pooled, "
              << packed_serial_rate << " on 1 thread (" << gate_speedup
              << "x over the scalar structural tier, " << run.shard_count
              << " shards)\n";
    json.set("scalar_gate_sequences_per_sec", scalar_gate_rate);
    json.set("packed_gate_sequences_per_sec", packed_serial_rate);
    json.set("pooled_gate_sequences_per_sec", packed_gate_rate);
    json.set("gate_speedup", gate_speedup);
    json.set("packed_detection_rate", stats.detection_rate());
    json.set("packed_correction_rate", stats.correction_rate());
    // Note: the two packed runs use different shard plans (1 x 640 vs
    // 10 x 64), so their stats differ by design; thread-count invariance
    // under a FIXED shard plan is asserted in exp1 and tests/test_parallel.
    ok = ok && stats.detection_rate() == 1.0 && stats.correction_rate() == 1.0 &&
         stats.silent_corruptions == 0 && gate_speedup >= 10.0;
    ok = ok && packed_serial.stats.detection_rate() == 1.0 &&
         packed_serial.stats.correction_rate() == 1.0 &&
         packed_serial.stats.silent_corruptions == 0;
  }

  bench::header("Event-driven scheduling — low-activity retention workload");
  {
    // A power-gated design spends most of its life idle: a burst of traffic,
    // a long quiet stretch, a retention sleep/wake, repeat. The dirty-net
    // worklist (sim/schedule.hpp) should make the quiet stretches nearly
    // free; the full sweep pays the whole netlist every settle regardless.
    // event_speedup is the perf-gated metric: same PackedSim workload, same
    // stimulus stream, Sweep wall clock over Event wall clock — a pure
    // scheduling ratio, machine-independent like gate_speedup above. It is
    // the median of interleaved pairs over a workload long enough (hundreds
    // of ms a side) that one timer tick or one preemption cannot move it.
    ProtectionConfig protection;
    protection.kind = CodeKind::HammingPlusCrc;
    protection.chain_count = 8;
    protection.test_width = 4;
    const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), protection);
    const Netlist& nl = design.netlist();

    constexpr int kEpisodes = 768;
    constexpr std::size_t kPairs = 5;
    constexpr int kActiveCycles = 4;
    constexpr std::size_t kIdleCycles = 256;
    auto run_workload = [&](PackedSim& sim) {
      std::uint64_t digest = 0;
      sim.reset();
      for (const char* name : {"se", "retain", "mon_en", "mon_decode",
                               "mon_clear", "sig_capture", "sig_compare",
                               "test_mode", "rd_en"}) {
        sim.set_input_all(name, false);
      }
      Rng stim(77);  // reseeded per run: both schedules see identical lanes
      for (int episode = 0; episode < kEpisodes; ++episode) {
        for (int active = 0; active < kActiveCycles; ++active) {
          sim.set_input("wr_en", stim.next_u64());
          sim.set_input("din0", stim.next_u64());
          sim.set_input("din1", stim.next_u64());
          sim.step();
        }
        sim.set_input_all("wr_en", false);
        sim.step_n(kIdleCycles);
        sim.set_input_all("retain", true);
        sim.step();
        sim.power_off(1);
        sim.power_on(1);
        sim.set_input_all("retain", false);
        sim.step();
        for (const NetId out : nl.outputs()) {
          digest = digest * 1099511628211ull ^ sim.net_lanes(out);
        }
      }
      return digest;
    };

    PackedSim sweep_sim(nl);
    sweep_sim.set_schedule(Schedule::Sweep);
    PackedSim event_sim(nl);
    event_sim.set_schedule(Schedule::Event);

    std::uint64_t sweep_digest = 0;
    std::uint64_t event_digest = 0;
    std::vector<double> sweep_times;
    const perfbench::Summary speedup = perfbench::interleaved_ratio(
        [&] { sweep_digest = run_workload(sweep_sim); },
        [&] { event_digest = run_workload(event_sim); }, kPairs, &sweep_times);
    const double event_speedup = speedup.median;
    const double sweep_seconds = perfbench::summarize(sweep_times).median;
    const double event_seconds = sweep_seconds / event_speedup;
    const ScheduleTelemetry activity = event_sim.take_schedule_telemetry();
    const double cycles =
        static_cast<double>(kEpisodes) * (kActiveCycles + kIdleCycles + 2);
    std::cout << "event-sched: " << cycles << " cycles x " << PackedSim::lane_count()
              << " lanes, sweep median " << sweep_seconds << " s\n  "
              << perfbench::describe("speedup (sweep / event)", speedup, "x")
              << "\n  event settles "
              << activity.event_sweeps << ", full sweeps " << activity.full_sweeps
              << " (" << activity.full_sweep_fallbacks
              << " fallbacks), avg dirty fraction " << activity.avg_dirty_fraction()
              << "\n  digest " << (sweep_digest == event_digest ? "match" : "MISMATCH")
              << " (0x" << std::hex << event_digest << std::dec << ")\n";
    json.set("event_speedup", event_speedup);
    json.set("event_sweeps", static_cast<double>(activity.event_sweeps));
    json.set("event_full_sweep_fallbacks",
             static_cast<double>(activity.full_sweep_fallbacks));
    json.set("avg_dirty_fraction", activity.avg_dirty_fraction());
    json.set("sweep_cycles_per_sec", cycles / sweep_seconds);
    json.set("event_cycles_per_sec", cycles / event_seconds);
    // Bit-identical values are the contract; the >= 2.0 speedup floor is
    // enforced by ci/check_bench_json.py against this report.
    ok = ok && sweep_digest == event_digest && activity.event_sweeps > 0 &&
         activity.avg_dirty_fraction() < 1.0;
    const ScheduleTelemetry sweep_activity = sweep_sim.take_schedule_telemetry();
    ok = ok && sweep_activity.event_sweeps == 0 && sweep_activity.full_sweeps > 0;
  }

  bench::header("Campaign service — warm-start speedup (session + artifact caches)");
  {
    // artifact_warm_speedup is the serve-daemon warm-start metric (gated
    // >= 1.2 in ci/check_bench_json.py): job setup wall clock — spec parse,
    // protected synthesis, netlist compile, workspace warm-up — for a cold
    // submission over the identical warm resubmission through the daemon's
    // JobManager, whose caches (in-memory sessions, on-disk compiled
    // artifacts) are exactly what `retscan submit` hits twice in the serve
    // CI job. Same binary, same host: a pure ratio. The gate below also
    // re-asserts the contract that makes warm starts admissible at all —
    // cold and warm runs digest-identically.
    const std::string dir = "bench_artifacts";
    const std::string spec_path = "bench_serve.spec";
    std::filesystem::remove_all(dir);
    {
      std::ofstream spec(spec_path);
      spec << "fifo.depth = 32\nfifo.width = 2\n"
              "protection.kind = hamming+crc\nprotection.hamming_r = 3\n"
              "protection.chain_count = 8\nprotection.test_width = 4\n"
              "campaign.kind = validation\ncampaign.tier = structural\n"
              "campaign.seed = 7\ncampaign.sequences = 40\n"
              "campaign.mode = single-random\n";
    }

    serve::ServeOptions options;
    options.cache_dir = dir;
    options.threads = 1;
    options.max_active = 1;
    serve::JobManager manager(options);
    const serve::JobRecord cold =
        *manager.wait(manager.submit(spec_path, {}));
    const serve::JobRecord warm =
        *manager.wait(manager.submit(spec_path, {}));
    ok = ok && cold.state == serve::JobState::Done &&
         warm.state == serve::JobState::Done && warm.session_reused &&
         serve::summary_digest(*cold.summary) ==
             serve::summary_digest(*warm.summary);

    // Daemon restart: a fresh JobManager over the same artifact directory
    // starts with an empty session cache but a warm compiled-netlist store.
    serve::JobManager restarted(options);
    const serve::JobRecord relaunch =
        *restarted.wait(restarted.submit(spec_path, {}));
    ok = ok && relaunch.state == serve::JobState::Done &&
         !relaunch.session_reused && restarted.artifact_stats().hits >= 1 &&
         serve::summary_digest(*cold.summary) ==
             serve::summary_digest(*relaunch.summary);

    const double artifact_warm_speedup =
        cold.setup_seconds / std::max(warm.setup_seconds, 1e-9);
    std::cout << "serve: cold setup " << cold.setup_seconds << " s, warm setup "
              << warm.setup_seconds << " s (" << artifact_warm_speedup
              << "x), restart-with-artifacts setup " << relaunch.setup_seconds
              << " s\n  cold/warm/restart digests "
              << (serve::summary_digest(*cold.summary) ==
                          serve::summary_digest(*relaunch.summary)
                      ? "match"
                      : "MISMATCH")
              << "\n";
    json.set("artifact_warm_speedup", artifact_warm_speedup);
    json.set("artifact_cold_setup_sec", cold.setup_seconds);
    json.set("artifact_warm_setup_sec", warm.setup_seconds);
    json.set("artifact_restart_setup_sec", relaunch.setup_seconds);
    install_artifact_store(nullptr);  // JobManager installed it globally
    std::filesystem::remove_all(dir);
    std::remove(spec_path.c_str());
  }

  std::cout << "\npaper: 100M sequences; 100%% single-error correction, 100%% multi-"
               "error detection, 0 escapes.\n";
  json.set("pass", ok ? 1.0 : 0.0);
  json.write();
  std::cout << (ok ? "\n[validation] PASS\n" : "\n[validation] FAIL\n");
  return ok ? 0 : 1;
}
