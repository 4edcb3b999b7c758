// `atpg` and `faultsim` workloads over the 18 vendored bench/circuits imports,
// wrapped as bench_external wraps them: '89-class circuits in the protection
// architecture, everything else bare.
//
//   atpg      complete stuck-at ATPG campaigns (Session::run): random 256 +
//             PODEM at 300 backtracks.
//   faultsim  no pattern generation: the pooled stuck-at, transition-delay
//             and bridging fault simulators grade one seeded random pattern
//             set per import, plus sequential coverage on the four
//             '89-class imports.

#include <memory>
#include <string>
#include <vector>

#include "atpg/fault_models.hpp"
#include "measure.hpp"
#include "retscan/netlist.hpp"
#include "retscan/session.hpp"
#include "retscan/test.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace retscan;

constexpr unsigned kThreads = 4;
constexpr std::size_t kMinSetups = 15;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kAtpgRandom = 256;
constexpr std::size_t kBacktracks = 300;
constexpr std::size_t kGradePatterns = 2048;
constexpr std::size_t kSeqSequences = 256;
constexpr std::size_t kSeqCycles = 32;
constexpr std::size_t kSpeedupPairs = 3;
constexpr std::size_t kPodemSamplePerImport = 32;

struct Import {
  const char* file;
  std::size_t chains;  ///< 0 = bare import
  CodeKind kind;
  std::size_t test_width;
  bool sequential;  ///< '89-class: also graded by the sequential model
  bool podem;       ///< complete ATPG runs PODEM on it (atpg workload)
};

// epfl_max alone needs ~27 s of PODEM on a 4-core x86 host (755 aborts at
// 300 backtracks), more than a whole run's budget, so the atpg workload
// gives it the random phase only; it still counts in setup and coverage.
constexpr Import kImports[] = {
    {"c17.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"add432.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"mul880.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"ecc499.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"par1355.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"cmp1908.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"ctl2670.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"alu3540.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"bar5315.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"mul6288.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"vot7552.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"s27.v", 3, CodeKind::CrcDetect, 3, true, true},
    {"ctrl344.v", 4, CodeKind::HammingPlusCrc, 4, true, true},
    {"pipe1196.v", 4, CodeKind::CrcDetect, 4, true, true},
    {"ctrl5378.v", 4, CodeKind::CrcDetect, 4, true, true},
    {"epfl_adder.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"epfl_bar.v", 0, CodeKind::CrcDetect, 0, false, true},
    {"epfl_max.v", 0, CodeKind::CrcDetect, 0, false, false},
};

struct Loaded {
  const Import* import = nullptr;
  std::uint64_t seed = 0;
  std::unique_ptr<Session> session;  ///< protected or bare wrap
  std::unique_ptr<Session> bare;     ///< '89-class raw import (faultsim only)
  std::vector<TransitionFault> transition;  ///< faultsim only
  std::vector<BridgingFault> bridging;      ///< faultsim only
};

struct SetupTimes {
  double parse = 0.0, lint = 0.0, synth = 0.0, compile = 0.0, frame = 0.0;
  std::size_t cells = 0;
};

/// Parse, lint, wrap, synthesize, compile and build frame + fault lists for
/// every import — everything the first campaign would otherwise pay.
/// `grading` adds what the faultsim workload grades: the '89-class raw
/// imports and the transition-delay and bridging fault lists.
std::vector<Loaded> load_imports(const Options& opts, bool grading, Report& report,
                                 SetupTimes& times) {
  SessionOptions session_options;
  session_options.threads = kThreads;
  std::vector<Loaded> loaded;
  for (const Import& import : kImports) {
    const std::string path = opts.circuits + "/" + import.file;
    Clock::time_point t0 = Clock::now();
    Netlist netlist = Netlist::from_verilog(path);
    times.parse += seconds_since(t0);
    times.cells += netlist.cell_count() - netlist.inputs().size() - netlist.outputs().size();

    t0 = Clock::now();
    const std::vector<LintIssue> issues = lint_netlist(netlist);
    times.lint += seconds_since(t0);
    bool clean = true;
    for (const LintIssue& issue : issues) {
      // Clock ports of the '89-class imports are intentionally unread.
      clean = clean && issue.kind == LintKind::FloatingInput;
    }
    report.check(clean, std::string("import lints clean: ") + import.file);

    Loaded entry;
    entry.import = &import;
    entry.seed = derive_seed(opts.seed, loaded.size());
    if (grading && import.sequential) {
      entry.bare = std::make_unique<Session>(Session::unprotected(netlist, session_options));
    }
    if (import.chains == 0) {
      entry.session =
          std::make_unique<Session>(Session::unprotected(std::move(netlist), session_options));
    } else {
      ProtectionConfig protection;
      protection.kind = import.kind;
      protection.chain_count = import.chains;
      protection.test_width = import.test_width;
      entry.session =
          std::make_unique<Session>(std::move(netlist), protection, session_options);
      t0 = Clock::now();
      entry.session->design();
      times.synth += seconds_since(t0);
    }
    for (Session* session : {entry.session.get(), entry.bare.get()}) {
      if (session == nullptr) {
        continue;
      }
      t0 = Clock::now();
      session->netlist().compiled();
      times.compile += seconds_since(t0);
      t0 = Clock::now();
      session->frame();
      session->faults();
      session->runner();
      times.frame += seconds_since(t0);
    }
    if (grading) {
      t0 = Clock::now();
      entry.transition = enumerate_transition_faults(entry.session->netlist());
      entry.bridging = enumerate_bridging_faults(entry.session->netlist());
      times.frame += seconds_since(t0);
    }
    loaded.push_back(std::move(entry));
  }
  return loaded;
}

/// Set-up timings of a run: one set-up before the passes (its sessions run
/// them), the others between passes and after them (`sample`), so the
/// medians sample the whole run and every core.
struct SetupSamples {
  std::vector<double> total, parse, lint, synth, compile, frame;
  std::size_t cells = 0;

  std::vector<Loaded> set_up(const Options& opts, bool grading, Report& report) {
    SetupTimes times;
    const Clock::time_point t0 = Clock::now();
    std::vector<Loaded> loaded = load_imports(opts, grading, report, times);
    total.push_back(seconds_since(t0));
    parse.push_back(times.parse);
    lint.push_back(times.lint);
    synth.push_back(times.synth);
    compile.push_back(times.compile);
    frame.push_back(times.frame);
    cells = times.cells;
    return loaded;
  }

  /// One more set-up sample, started on the next core in turn.
  void sample(const Options& opts, bool grading, Report& report) {
    move_to_cpu(total.size());
    set_up(opts, grading, report);
  }

  void report_medians(const Options& opts, Report& report) const {
    const double parse_s = summarize(parse).median;
    report.set("setup_s", summarize(total).median);
    report.set("netlist.parse_s", parse_s);
    report.set("netlist.cells_per_s", static_cast<double>(cells) / parse_s);
    report.set("netlist.lint_s", summarize(lint).median);
    report.set("core.synth_s", summarize(synth).median);
    report.set("sim.compile_s", summarize(compile).median);
    report.set("atpg.frame_s", summarize(frame).median);
    report.note(describe(opts.workload +
                             " setup (parse + lint + session + synth + compile + frame)",
                         summarize(total), "s"));
  }
};

/// Deterministic outcome of one campaign or simulator call, compared across
/// passes, thread counts and the API-vs-layer-call decomposition.
struct Counts {
  std::size_t detected = 0;
  std::size_t total = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  std::size_t patterns = 0;
  bool operator==(const Counts&) const = default;
};

double coverage_of(const std::vector<Counts>& counts) {
  double detected = 0.0;
  double testable = 0.0;
  for (const Counts& c : counts) {
    detected += static_cast<double>(c.detected);
    testable += static_cast<double>(c.total - c.untestable);
  }
  return detected / testable;
}

/// Times `body` into `slot` inside a span named `name`; returns its result.
template <typename Body>
auto timed_span(Tracer& tracer, const char* name, double& slot, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  Tracer::Scope span(tracer, name);
  auto result = body();
  slot += seconds_since(t0);
  return result;
}

// --- atpg ------------------------------------------------------------------

AtpgOptions atpg_options(const Loaded& entry, bool podem) {
  AtpgOptions options;
  options.random_patterns = kAtpgRandom;
  options.max_backtracks = kBacktracks;
  options.run_podem = podem;
  options.seed = entry.seed;
  return options;
}

Counts atpg_counts(const AtpgResult& result) {
  return {result.detected(), result.total_faults, result.untestable, result.aborted,
          result.patterns.size()};
}

/// Complete ATPG through the public API, one fault-coverage campaign per
/// import at `threads` threads.
std::vector<Counts> atpg_pass(std::vector<Loaded>& loaded, unsigned threads, Report& report) {
  std::vector<Counts> counts;
  for (Loaded& entry : loaded) {
    CampaignSpec spec;
    spec.kind = CampaignKind::FaultCoverage;
    spec.backend = Backend::PackedParallel;
    spec.seed = entry.seed;
    spec.threads = threads;
    spec.atpg = atpg_options(entry, entry.import->podem);
    const CampaignResult result = entry.session->run(spec);
    report.check(result.passed(), std::string("atpg campaign: ") + entry.import->file);
    counts.push_back(atpg_counts(result.atpg));
  }
  return counts;
}

struct AtpgLayer {
  double complete_s = 0.0;  ///< run_atpg, random + PODEM
  double faultsim_s = 0.0;  ///< pooled grading of the final pattern set
  double faultsim_evals = 0.0;
  std::size_t survivors = 0;  ///< faults the random phase handed to PODEM
  std::size_t aborted = 0;
  std::size_t untestable = 0;
};

/// The fault-coverage campaign as its two atpg-layer calls: run_atpg, then
/// pooled fault simulation of the pattern set it returns.
std::vector<Counts> atpg_pass_traced(std::vector<Loaded>& loaded, Tracer& tracer,
                                     AtpgLayer& layer) {
  Tracer::Scope pass(tracer, "bench.pass");
  std::vector<Counts> counts;
  for (Loaded& entry : loaded) {
    const CombinationalFrame& frame = entry.session->frame();
    const std::vector<Fault>& faults = entry.session->faults();
    const AtpgResult result = timed_span(tracer, "atpg.run_atpg", layer.complete_s, [&] {
      return run_atpg(frame, faults, atpg_options(entry, entry.import->podem));
    });
    timed_span(tracer, "atpg.faultsim", layer.faultsim_s, [&] {
      return fault_simulate(frame, faults, result.patterns, entry.session->pool(), 128);
    });
    layer.faultsim_evals +=
        static_cast<double>(faults.size()) * static_cast<double>(result.patterns.size());
    if (entry.import->podem) {
      layer.survivors += result.total_faults - result.detected_random;
    }
    layer.aborted += result.aborted;
    layer.untestable += result.untestable;
    counts.push_back(atpg_counts(result));
  }
  return counts;
}

/// Seconds of run_atpg with PODEM off over every import: the random phase
/// of a pass alone.
double atpg_random_phase(std::vector<Loaded>& loaded) {
  const Clock::time_point t0 = Clock::now();
  for (Loaded& entry : loaded) {
    run_atpg(entry.session->frame(), entry.session->faults(), atpg_options(entry, false));
  }
  return seconds_since(t0);
}

struct PodemSample {
  std::vector<double> generate_us;
  std::size_t successes = 0;
};

/// Per-call Podem::generate latency over up to kPodemSamplePerImport evenly
/// spaced random-phase survivors of every PODEM import. A sample, not a
/// replay of run_atpg's PODEM phase: no collateral dropping, no checks.
PodemSample sample_podem(std::vector<Loaded>& loaded) {
  PodemSample sample;
  for (Loaded& entry : loaded) {
    if (!entry.import->podem) {
      continue;
    }
    const CombinationalFrame& frame = entry.session->frame();
    const std::vector<Fault>& faults = entry.session->faults();
    const AtpgResult random = run_atpg(frame, faults, atpg_options(entry, false));
    const FaultSimResult graded =
        fault_simulate(frame, faults, random.patterns, entry.session->pool(), 128);
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (graded.detected_by[i] == FaultSimResult::npos) {
        survivors.push_back(i);
      }
    }
    const std::size_t step = std::max<std::size_t>(1, survivors.size() / kPodemSamplePerImport);
    Podem podem(frame, kBacktracks);
    Rng rng(entry.seed);
    for (std::size_t i = 0; i < survivors.size(); i += step) {
      const Clock::time_point t0 = Clock::now();
      const PodemResult result = podem.generate(faults[survivors[i]], rng);
      sample.generate_us.push_back(seconds_since(t0) * 1e6);
      sample.successes += result.success ? 1 : 0;
    }
  }
  return sample;
}

// --- faultsim --------------------------------------------------------------

/// One seeded random pattern set per import (index-aligned with the loaded
/// imports): the benchmark's input to the fault simulators.
using Patterns = std::vector<std::vector<BitVec>>;

Patterns grading_patterns(const std::vector<Loaded>& loaded) {
  Patterns patterns;
  for (const Loaded& entry : loaded) {
    Rng rng(entry.seed);
    std::vector<BitVec>& set = patterns.emplace_back();
    for (std::size_t i = 0; i < kGradePatterns; ++i) {
      set.push_back(entry.session->frame().random_pattern(rng));
    }
  }
  return patterns;
}

struct GradeLayer {
  double faultsim_s = 0.0, td_s = 0.0, bridging_s = 0.0, seq_s = 0.0;
  double faultsim_evals = 0.0;
};

Counts sim_counts(const FaultSimResult& result, std::size_t patterns) {
  return {result.detected, result.total_faults, 0, 0, patterns};
}

/// One grading pass: each import's pattern set through the pooled stuck-at,
/// transition-delay and bridging fault simulators, and sequential coverage
/// on the '89-class raw imports. `pool` null = each session's own pool.
/// Every call is spanned (when `tracer` is on) and timed into `layer`.
std::vector<Counts> faultsim_pass(std::vector<Loaded>& loaded, const Patterns& patterns,
                                  ThreadPool* pool, Tracer& tracer, GradeLayer& layer) {
  Tracer::Scope pass(tracer, "bench.pass");
  std::vector<Counts> counts;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    Loaded& entry = loaded[i];
    Session& session = *entry.session;
    ThreadPool& workers = pool != nullptr ? *pool : session.pool();
    const CombinationalFrame& frame = session.frame();
    const std::vector<BitVec>& set = patterns[i];
    counts.push_back(sim_counts(
        timed_span(tracer, "atpg.faultsim", layer.faultsim_s,
                   [&] { return fault_simulate(frame, session.faults(), set, workers, 128); }),
        set.size()));
    layer.faultsim_evals +=
        static_cast<double>(session.faults().size()) * static_cast<double>(set.size());
    counts.push_back(sim_counts(
        timed_span(tracer, "atpg.transition", layer.td_s,
                   [&] {
                     return transition_fault_simulate(frame, entry.transition, set, workers,
                                                      128);
                   }),
        set.size()));
    counts.push_back(sim_counts(
        timed_span(tracer, "atpg.bridging", layer.bridging_s,
                   [&] {
                     return bridging_fault_simulate(frame, entry.bridging, set, workers, 128);
                   }),
        set.size()));
    if (entry.bare) {
      counts.push_back(sim_counts(
          timed_span(tracer, "atpg.sequential", layer.seq_s,
                     [&] {
                       ThreadPool& bare_workers = pool != nullptr ? *pool : entry.bare->pool();
                       return sequential_fault_simulate(entry.bare->netlist(),
                                                        entry.bare->faults(), kSeqSequences,
                                                        kSeqCycles, entry.seed, bare_workers,
                                                        64);
                     }),
          kSeqSequences));
    }
  }
  return counts;
}

// --- shared ----------------------------------------------------------------

/// Shared workload body: the untimed 1-thread oracle pass, which also warms
/// every session's lazy state before timing; the timed 4-thread passes,
/// each checked against it; then the end-to-end metrics. `between` runs
/// untimed after every pass or pair; it already takes one set-up sample.
template <typename SerialPass, typename Pass, typename TracedPass, typename Between>
void run_import_workload(const Options& opts, Report& report, SetupSamples& setup,
                         bool grading, SerialPass&& serial_pass, Pass&& pass,
                         TracedPass&& traced_pass, Between&& between, PassTimes& times) {
  const std::vector<Counts> reference = serial_pass();
  const auto checked = [&](const std::vector<Counts>& counts, const char* what) {
    report.check(counts == reference, what);
  };
  times = run_passes(
      opts, kMinPasses,
      [&] { checked(pass(), "detected/total equal at 4 threads and at 1"); },
      [&] { checked(traced_pass(), "traced pass equals the 1-thread pass"); },
      [&] {
        setup.sample(opts, grading, report);
        between();
      });
  const Summary run = summarize(times.untraced);
  report.set("run_s", run.median);
  // Peak memory of the oracle pass, the timed passes and the set-ups run
  // between them; the top-up set-ups come after.
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("coverage", coverage_of(reference));
  std::size_t faults = 0;
  for (const Counts& c : reference) {
    faults += c.total;
  }
  std::vector<double> rates;
  for (const double t : times.untraced) {
    rates.push_back(static_cast<double>(faults) / t);
  }
  report.set("work_per_s", summarize(rates).median);
  report.note(describe(opts.workload + " pass (time-to-coverage)", run, "s"));
  report.note(opts.workload + " faults resolved per pass: " + std::to_string(faults) +
              ", coverage " + std::to_string(coverage_of(reference)));

  while (setup.total.size() < kMinSetups) {
    setup.sample(opts, grading, report);
  }
  setup.report_medians(opts, report);
}

}  // namespace

void run_atpg(const Options& opts, Report& report, Tracer& tracer) {
  SetupSamples setup;
  std::vector<Loaded> loaded = setup.set_up(opts, false, report);
  AtpgLayer layer;
  std::vector<double> random_s;
  PassTimes times;
  run_import_workload(
      opts, report, setup, false, [&] { return atpg_pass(loaded, 1, report); },
      [&] { return atpg_pass(loaded, kThreads, report); },
      [&] { return atpg_pass_traced(loaded, tracer, layer); },
      [&] {
        if (opts.trace) {
          random_s.push_back(atpg_random_phase(loaded));
        }
      },
      times);

  if (opts.trace) {
    const double passes = static_cast<double>(times.traced.size());
    const double complete_s = layer.complete_s / passes;
    const double random = summarize(random_s).median;
    const PodemSample podem = sample_podem(loaded);
    const Summary generate = summarize(podem.generate_us);
    report.set("atpg.random_s", random);
    report.set("atpg.podem_s", complete_s - random);
    report.set("atpg.podem_targets", static_cast<double>(layer.survivors) / passes);
    report.set("atpg.podem_us_p50", generate.median);
    report.set("atpg.podem_us_p99", generate.p99);
    report.set("atpg.podem_success_ratio", static_cast<double>(podem.successes) /
                                               static_cast<double>(generate.count));
    report.set("atpg.aborted", static_cast<double>(layer.aborted) / passes);
    report.set("atpg.untestable", static_cast<double>(layer.untestable) / passes);
    report.set("atpg.faultsim_evals_per_s", layer.faultsim_evals / layer.faultsim_s);
    const Summary untraced = summarize(times.untraced);
    const Summary traced = summarize(times.traced);
    finish_trace(opts, report, tracer, traced.median / untraced.median - 1.0,
                 {describe("untraced passes", untraced, "s"),
                  describe("traced passes", traced, "s"),
                  "atpg.run_atpg per pass " + std::to_string(complete_s) +
                      " s, of which PODEM " + std::to_string(complete_s - random) +
                      " s (minus a PODEM-off random phase of " + std::to_string(random) +
                      " s, median of " + std::to_string(random_s.size()) + ")",
                  describe("Podem::generate on a sample of random-phase survivors",
                           generate, "us")});
  }
}

void run_faultsim(const Options& opts, Report& report, Tracer& tracer) {
  SetupSamples setup;
  std::vector<Loaded> loaded = setup.set_up(opts, true, report);
  const Patterns patterns = grading_patterns(loaded);
  Tracer untraced(false);
  GradeLayer unused;
  GradeLayer layer;
  ThreadPool serial(1);
  PassTimes times;
  run_import_workload(
      opts, report, setup, true,
      [&] { return faultsim_pass(loaded, patterns, &serial, untraced, unused); },
      [&] { return faultsim_pass(loaded, patterns, nullptr, untraced, unused); },
      [&] { return faultsim_pass(loaded, patterns, nullptr, tracer, layer); }, [] {}, times);

  if (opts.trace) {
    const double passes = static_cast<double>(times.traced.size());
    report.set("atpg.faultsim_evals_per_s", layer.faultsim_evals / layer.faultsim_s);
    report.set("atpg.td_s", layer.td_s / passes);
    report.set("atpg.bridging_s", layer.bridging_s / passes);
    report.set("atpg.seq_s", layer.seq_s / passes);

    // The whole grading pass on identical work at 1 vs 4 threads, interleaved.
    const Summary speedup = interleaved_ratio(
        [&] { faultsim_pass(loaded, patterns, &serial, untraced, unused); },
        [&] { faultsim_pass(loaded, patterns, nullptr, untraced, unused); }, kSpeedupPairs);
    report.set("parallel.speedup_t4.faultsim", speedup.median);

    const Summary untraced_passes = summarize(times.untraced);
    const Summary traced = summarize(times.traced);
    finish_trace(opts, report, tracer, traced.median / untraced_passes.median - 1.0,
                 {describe("untraced passes", untraced_passes, "s"),
                  describe("traced passes", traced, "s"),
                  describe("grading pass speed-up, 4 vs 1 threads", speedup, "x")});
  }
}

}  // namespace perfbench
