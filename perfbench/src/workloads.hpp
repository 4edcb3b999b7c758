#pragma once

// The four benchmark workloads. Each derives its inputs from opts.seed,
// measures for opts.seconds, checks its outputs against an oracle (every
// check lands in the report) and fills the metrics of the report's mode.

#include <functional>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

void run_retention(const Options& opts, Report& report, Tracer& tracer);
void run_atpg(const Options& opts, Report& report, Tracer& tracer);
void run_faultsim(const Options& opts, Report& report, Tracer& tracer);
void run_serve(const Options& opts, Report& report, Tracer& tracer);

/// Keep every core busy for `seconds` (untimed warm-up before a run).
void cpu_warmup(double seconds);

/// Durations of the timed passes of a run.
struct PassTimes {
  std::vector<double> untraced;
  std::vector<double> traced;  ///< traced runs only
};

/// Untraced run: `untraced` passes while another one still fits in
/// opts.seconds (at least `min_passes`). Traced run: untraced/traced pass
/// pairs within the same budget, alternating which runs first; the pairs
/// give the tracing overhead. The first pass is always untraced. `between`
/// runs untimed after every pass or pair (set-up samples spread over the run).
PassTimes run_passes(const Options& opts, std::size_t min_passes,
                     const std::function<void()>& untraced,
                     const std::function<void()>& traced,
                     const std::function<void()>& between);

/// Record the layer shares and span coverage of a traced run and write its
/// spans and "where the time goes" table.
void finish_trace(const Options& opts, Report& report, const Tracer& tracer,
                  double tracing_overhead, const std::vector<std::string>& notes);

/// Derived per-campaign seed: distinct streams from one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
