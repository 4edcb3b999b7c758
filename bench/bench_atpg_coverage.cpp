// Section III evidence: manufacturing test is unaffected by the monitoring
// architecture. Runs ATPG on the protected FIFO's combinational frame and
// applies the pattern set through the Fig. 5(b) test-mode concatenation on
// the live gate-level design; every pattern must pass, at full random+PODEM
// coverage of testable faults.
//
// PODEM itself is timed against the retained reference implementation
// (bench/reference_podem.hpp: full re-simulation per decision) on the
// identical targets — every random-phase survivor — and both must return
// identical results: `atpg_speedup` in BENCH_atpg.json. Complete ATPG is
// also timed on the default pool against a 1-thread pool, pattern sets
// checked identical: `podem_threaded_speedup`.
//
// Also the fault-sim/delivery throughput bench: the 64-way bit-parallel
// paths are timed against scalar baselines (one pattern per pass / one
// pattern per scan load) and both throughputs land in BENCH_atpg.json,
// plus the multi-threaded variants (fault list / pattern batches sharded
// over the pool) which must reproduce the 1-thread results
// bit-for-bit.

#include <algorithm>
#include <iostream>
#include <string>

#include "retscan/test.hpp"
#include "bench_util.hpp"
#include "measure.hpp"
#include "reference_podem.hpp"
#include "retscan/netlist.hpp"
#include "retscan/parallel.hpp"

using namespace retscan;

namespace {

/// Full fault-dictionary workload (no fault dropping): every fault is
/// simulated against every pattern, so the measured cost is pure
/// pattern-evaluation throughput. `batch_size` kLaneBlockBits is the
/// block-parallel compiled cone path (256 patterns per pass at the default
/// lane width); with `reference` set, each fault instead pays a full
/// interpreted circuit evaluation per pattern pass (the seed's
/// one-fault-at-a-time flow), which is the scalar baseline.
std::size_t fault_dictionary_detects(const CombinationalFrame& frame,
                                     const std::vector<Fault>& faults,
                                     const std::vector<BitVec>& patterns,
                                     std::size_t batch_size, bool reference = false) {
  std::size_t detected = 0;
  std::vector<char> hit(faults.size(), 0);
  std::vector<const CombinationalFrame::FaultCone*> cones;
  for (const Fault& fault : faults) {
    cones.push_back(&frame.fault_cone(fault.net));
  }
  CombinationalFrame::Workspace workspace;
  for (std::size_t base = 0; base < patterns.size(); base += batch_size) {
    const std::size_t count = std::min(batch_size, patterns.size() - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    if (reference) {
      const auto good_words = frame.good_response_words(batch);
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (frame.detect_mask_full(faults[fi], batch, good_words) != 0) {
          hit[fi] = 1;
        }
      }
      continue;
    }
    const CombinationalFrame::LoadedPatternBatch loaded = frame.load_batch(batch);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (block_any(frame.detect_block(faults[fi], *cones[fi], loaded, workspace))) {
        hit[fi] = 1;
      }
    }
  }
  for (const char h : hit) {
    detected += h != 0 ? 1 : 0;
  }
  return detected;
}

}  // namespace

int main() {
  bench::header("ATPG + test-mode delivery on the protected FIFO");
  bench::JsonReport json("atpg");

  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);

  CombinationalFrame frame(design.netlist());
  for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                           "sig_capture", "sig_compare", "test_mode"}) {
    frame.constrain(name, false);
  }
  const auto all = enumerate_faults(design.netlist());
  const auto faults = collapse_faults(design.netlist(), all);
  std::cout << "fault universe: " << all.size() << " stem faults, " << faults.size()
            << " after collapsing\n";

  AtpgOptions options;
  options.random_patterns = 512;
  options.max_backtracks = 300;
  const AtpgResult atpg = run_atpg(frame, faults, options);
  std::cout << "ATPG: " << atpg.detected_random << " random + " << atpg.detected_podem
            << " podem detected, " << atpg.untestable << " untestable, "
            << atpg.aborted << " aborted\n"
            << "coverage " << 100.0 * atpg.coverage() << "% with "
            << atpg.patterns.size() << " patterns\n";
  json.set("coverage", atpg.coverage());
  json.set("patterns", static_cast<double>(atpg.patterns.size()));
  json.set("collapsed_faults", static_cast<double>(faults.size()));

  // --- PODEM: compiled incremental vs reference full re-simulation --------
  // Same targets (the random phase's survivors), same budget, same RNG seed
  // on both sides; each side's time is the best of interleaved repetitions.
  bench::header("PODEM (compiled incremental vs reference re-simulation)");
  AtpgOptions random_only = options;
  random_only.run_podem = false;
  const AtpgResult random_phase = run_atpg(frame, faults, random_only);
  ThreadPool grading_pool(1);
  const FaultSimResult random_graded =
      fault_simulate(frame, faults, random_phase.patterns, grading_pool);
  std::vector<Fault> targets;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (random_graded.detected_by[i] == FaultSimResult::npos) {
      targets.push_back(faults[i]);
    }
  }
  constexpr int kPodemRepeats = 3;
  double compiled_podem_time = 0.0;
  double reference_podem_time = 0.0;
  bool podem_matches = true;
  for (int r = 0; r < kPodemRepeats; ++r) {
    std::vector<PodemResult> compiled_results;
    std::vector<PodemResult> reference_results;
    perfbench::Clock::time_point podem_start = perfbench::Clock::now();
    Podem podem(frame, options.max_backtracks);
    Rng compiled_rng(options.seed);
    for (const Fault& fault : targets) {
      compiled_results.push_back(podem.generate(fault, compiled_rng));
    }
    const double compiled_time = perfbench::seconds_since(podem_start);
    podem_start = perfbench::Clock::now();
    bench::ReferencePodem reference(frame, options.max_backtracks);
    Rng reference_rng(options.seed);
    for (const Fault& fault : targets) {
      reference_results.push_back(reference.generate(fault, reference_rng));
    }
    const double reference_time = perfbench::seconds_since(podem_start);
    podem_matches = podem_matches && compiled_results == reference_results;
    compiled_podem_time = r == 0 ? compiled_time : std::min(compiled_podem_time, compiled_time);
    reference_podem_time =
        r == 0 ? reference_time : std::min(reference_podem_time, reference_time);
  }
  const double atpg_speedup = reference_podem_time / compiled_podem_time;
  std::cout << targets.size() << " PODEM targets, results "
            << (podem_matches ? "identical" : "DIVERGED") << "\n"
            << "compiled:  " << compiled_podem_time << " s\n"
            << "reference: " << reference_podem_time << " s\n"
            << "speedup:   " << atpg_speedup << "x\n";
  json.set("podem_targets", static_cast<double>(targets.size()));
  json.set("podem_compiled_sec", compiled_podem_time);
  json.set("podem_reference_sec", reference_podem_time);
  json.set("atpg_speedup", atpg_speedup);

  // --- fault-simulation throughput: packed (64 patterns/pass) vs scalar ---
  // Timed on the full fault-dictionary workload (no dropping) so both sides
  // evaluate every fault against every pattern.
  bench::header("Fault-simulation throughput (block-parallel vs scalar baseline)");
  const double nominal_evals =
      static_cast<double>(faults.size()) * static_cast<double>(atpg.patterns.size());
  perfbench::Clock::time_point start = perfbench::Clock::now();
  constexpr int kPackedRepeats = 5;
  std::size_t packed_detects = 0;
  for (int r = 0; r < kPackedRepeats; ++r) {
    packed_detects =
        fault_dictionary_detects(frame, faults, atpg.patterns, kLaneBlockBits);
  }
  const double packed_fs_time = perfbench::seconds_since(start) / kPackedRepeats;
  start = perfbench::Clock::now();
  const std::size_t scalar_detects =
      fault_dictionary_detects(frame, faults, atpg.patterns, 1, /*reference=*/true);
  const double scalar_fs_time = perfbench::seconds_since(start);
  const double packed_fs_rate = nominal_evals / packed_fs_time;
  const double scalar_fs_rate = nominal_evals / scalar_fs_time;
  const double faultsim_speedup = packed_fs_rate / scalar_fs_rate;
  std::cout << "packed:  " << packed_fs_rate << " fault-evals/sec\n"
            << "scalar:  " << scalar_fs_rate << " fault-evals/sec\n"
            << "speedup: " << faultsim_speedup << "x\n";
  json.set("packed_fault_evals_per_sec", packed_fs_rate);
  json.set("scalar_fault_evals_per_sec", scalar_fs_rate);
  json.set("faultsim_speedup", faultsim_speedup);

  // --- multi-threaded fault simulation (with fault dropping) --------------
  bench::header("Multi-threaded fault simulation (N cores x 64 lanes)");
  // The "serial" reference is the same grader on a 1-thread pool, which
  // runs its shards inline.
  ThreadPool pool;  // RETSCAN_THREADS / hardware_concurrency
  ThreadPool serial_pool(1);
  start = perfbench::Clock::now();
  const FaultSimResult serial_sim = fault_simulate(frame, faults, atpg.patterns, serial_pool);
  const double serial_sim_time = perfbench::seconds_since(start);
  start = perfbench::Clock::now();
  const FaultSimResult pooled_sim = fault_simulate(frame, faults, atpg.patterns, pool);
  const double pooled_sim_time = perfbench::seconds_since(start);
  const double threaded_speedup = serial_sim_time / pooled_sim_time;
  const bool pooled_matches = pooled_sim.detected_by == serial_sim.detected_by &&
                              pooled_sim.detected == serial_sim.detected;
  std::cout << "serial:  " << serial_sim.detected << "/" << serial_sim.total_faults
            << " detected in " << serial_sim_time << " s\n"
            << "pooled:  " << pooled_sim.detected << "/" << pooled_sim.total_faults
            << " detected in " << pooled_sim_time << " s on " << pool.size()
            << " threads (" << threaded_speedup << "x, results "
            << (pooled_matches ? "identical" : "DIVERGED") << ")\n";
  json.set("threads", static_cast<double>(pool.size()));
  json.set("faultsim_threaded_speedup", threaded_speedup);

  // --- thread scaling curve (1/2/4/8) -------------------------------------
  // Same workload per point; speedup is against the 1-thread run above, and
  // efficiency = speedup / threads. Results must stay identical per point.
  bench::header("Fault-simulation thread scaling curve");
  bool scaling_matches = true;
  for (const unsigned n : {1u, 2u, 4u, 8u}) {
    ThreadPool curve_pool(n);
    start = perfbench::Clock::now();
    const FaultSimResult curve_sim =
        fault_simulate(frame, faults, atpg.patterns, curve_pool);
    const double curve_time = perfbench::seconds_since(start);
    scaling_matches = scaling_matches && curve_sim.detected_by == serial_sim.detected_by;
    const double speedup = serial_sim_time / curve_time;
    const double efficiency = speedup / static_cast<double>(n);
    std::cout << n << " thread(s): " << curve_time << " s, speedup " << speedup
              << "x, efficiency " << efficiency << "\n";
    const std::string suffix = "_t" + std::to_string(n);
    json.set("faultsim_speedup" + suffix, speedup);
    json.set("scaling_efficiency" + suffix, efficiency);
  }

  // --- the same curve on 4096 random patterns (ungated) -------------------
  // ATPG's compacted set above fits in one lane block, so its curve mostly
  // times dispatch overhead. A fixed seeded set of 4096 patterns (16 lane
  // blocks at the default lane width) gives each point real grading work;
  // its keys sit beside the gated ones. Results must match the 1-thread
  // grade per point.
  bench::header("Fault-simulation thread scaling curve, 4096 random patterns");
  constexpr std::size_t kRandomPatterns = 4096;
  Rng pattern_rng(2024);
  std::vector<BitVec> random_patterns;
  random_patterns.reserve(kRandomPatterns);
  for (std::size_t i = 0; i < kRandomPatterns; ++i) {
    random_patterns.push_back(pattern_rng.next_bits(frame.pattern_width()));
  }
  start = perfbench::Clock::now();
  const FaultSimResult random_serial =
      fault_simulate(frame, faults, random_patterns, serial_pool);
  const double random_serial_time = perfbench::seconds_since(start);
  bool random_matches = true;
  for (const unsigned n : {1u, 2u, 4u, 8u}) {
    ThreadPool curve_pool(n);
    start = perfbench::Clock::now();
    const FaultSimResult curve_sim =
        fault_simulate(frame, faults, random_patterns, curve_pool);
    const double curve_time = perfbench::seconds_since(start);
    random_matches = random_matches && curve_sim.detected_by == random_serial.detected_by;
    const double speedup = random_serial_time / curve_time;
    const double efficiency = speedup / static_cast<double>(n);
    std::cout << n << " thread(s): " << curve_time << " s, speedup " << speedup
              << "x, efficiency " << efficiency << "\n";
    const std::string suffix = "_t" + std::to_string(n);
    json.set("faultsim_random_speedup" + suffix, speedup);
    json.set("faultsim_random_efficiency" + suffix, efficiency);
  }
  std::cout << random_serial.detected << "/" << random_serial.total_faults
            << " detected, results " << (random_matches ? "identical" : "DIVERGED")
            << "\n";

  // --- complete ATPG: speculative PODEM on the pool vs a 1-thread pool ----
  // The headline run's options on both sides, best of interleaved
  // repetitions. PODEM commits in fault order and X-fills at commit, so
  // both pattern sets must equal the headline run's.
  bench::header("Complete ATPG thread speed-up (speculative PODEM)");
  const auto same_atpg = [&atpg](const AtpgResult& other) {
    return other.patterns == atpg.patterns && other.detected_random == atpg.detected_random &&
           other.detected_podem == atpg.detected_podem &&
           other.untestable == atpg.untestable && other.aborted == atpg.aborted;
  };
  double serial_atpg_time = 0.0;
  double pooled_atpg_time = 0.0;
  bool atpg_pool_matches = true;
  for (int r = 0; r < kPodemRepeats; ++r) {
    start = perfbench::Clock::now();
    const AtpgResult serial_atpg = run_atpg(frame, faults, options, &serial_pool);
    const double serial_time = perfbench::seconds_since(start);
    start = perfbench::Clock::now();
    const AtpgResult pooled_atpg = run_atpg(frame, faults, options, &pool);
    const double pooled_time = perfbench::seconds_since(start);
    atpg_pool_matches = atpg_pool_matches && same_atpg(serial_atpg) && same_atpg(pooled_atpg);
    serial_atpg_time = r == 0 ? serial_time : std::min(serial_atpg_time, serial_time);
    pooled_atpg_time = r == 0 ? pooled_time : std::min(pooled_atpg_time, pooled_time);
  }
  const double podem_threaded_speedup = serial_atpg_time / pooled_atpg_time;
  std::cout << "1 thread:  " << serial_atpg_time << " s\n"
            << pool.size() << " threads: " << pooled_atpg_time << " s ("
            << podem_threaded_speedup << "x, pattern sets "
            << (atpg_pool_matches ? "identical" : "DIVERGED") << ")\n";
  json.set("atpg_serial_sec", serial_atpg_time);
  json.set("atpg_pooled_sec", pooled_atpg_time);
  json.set("podem_threaded_speedup", podem_threaded_speedup);

  // --- test-mode delivery throughput: one lane per pattern vs one load ----
  // The single-thread packed rate is the 64-lane delivery on a 1-thread
  // pool, which runs its shards inline.
  bench::header("Test-mode delivery throughput (64-lane vs scalar tester)");
  start = perfbench::Clock::now();
  const ScanTestResult packed_applied =
      apply_test_mode_scan_test_packed(design, frame, atpg.patterns, serial_pool);
  const double packed_apply_time = perfbench::seconds_since(start);
  start = perfbench::Clock::now();
  const ScanTestResult pooled_applied =
      apply_test_mode_scan_test_packed(design, frame, atpg.patterns, pool, 128);
  const double pooled_apply_time = perfbench::seconds_since(start);
  RetentionSession session(design);
  start = perfbench::Clock::now();
  const ScanTestResult scalar_applied =
      apply_test_mode_scan_test(session, design, frame, atpg.patterns);
  const double scalar_apply_time = perfbench::seconds_since(start);
  const double packed_rate = packed_applied.patterns_applied / packed_apply_time;
  const double pooled_rate = pooled_applied.patterns_applied / pooled_apply_time;
  const double scalar_rate = scalar_applied.patterns_applied / scalar_apply_time;
  const double delivery_speedup = packed_rate / scalar_rate;
  std::cout << "test-mode delivery: " << scalar_applied.patterns_applied
            << " patterns, " << scalar_applied.mismatches << " mismatches (scalar), "
            << packed_applied.mismatches << " (packed), " << pooled_applied.mismatches
            << " (pooled)\n"
            << "packed:  " << packed_rate << " patterns/sec\n"
            << "pooled:  " << pooled_rate << " patterns/sec (" << pool.size()
            << " threads)\n"
            << "scalar:  " << scalar_rate << " patterns/sec\n"
            << "speedup: " << delivery_speedup << "x (single-thread packed)\n";
  json.set("packed_patterns_per_sec", packed_rate);
  json.set("pooled_patterns_per_sec", pooled_rate);
  json.set("scalar_patterns_per_sec", scalar_rate);
  json.set("delivery_speedup", delivery_speedup);

  const bool ok = atpg.coverage() > 0.90 && scalar_applied.all_passed() &&
                  packed_applied.all_passed() && pooled_applied.all_passed() &&
                  pooled_applied.patterns_applied == packed_applied.patterns_applied &&
                  pooled_matches && scaling_matches && random_matches && podem_matches && atpg_pool_matches &&
                  packed_detects == scalar_detects &&
                  faultsim_speedup >= 10.0 && delivery_speedup >= 10.0;
  json.set("pass", ok ? 1.0 : 0.0);
  json.write();
  std::cout << (ok ? "\n[atpg] PASS\n" : "\n[atpg] FAIL\n");
  return ok ? 0 : 1;
}
