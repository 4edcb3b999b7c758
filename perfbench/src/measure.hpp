#pragma once

// Repeated-measurement helpers: warm-up, then timed repetitions reported as
// median, quartiles and sample count; ratios from interleaved A/B pairs.

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order statistics of a sample set. Quartiles use the same inclusive
/// linear interpolation as Python's statistics.quantiles(method="inclusive").
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
};

Summary summarize(std::vector<double> samples);

/// "what: median M unit (q1 A, q3 B, n=N)".
std::string describe(const std::string& what, const Summary& summary, const char* unit);

/// Time `body` repeatedly: `warmup` untimed calls, then timed calls while
/// fewer than `min_reps` ran or another call of the last one's duration
/// still ends within `budget_s` of the first timed call (at most `max_reps`).
/// Returns one duration per timed call.
std::vector<double> repeat_timed(const std::function<void()>& body, std::size_t warmup,
                                 double budget_s, std::size_t min_reps,
                                 std::size_t max_reps);

/// Per-pair ratio time(a) / time(b) over `pairs` interleaved pairs,
/// alternating which side runs first — the speed-up of `b` over `a`. Never
/// clamped: with `a` serial and `b` parallel, a parallel path that loses to
/// serial reads below 1. `a_times` (optional) receives a's durations.
Summary interleaved_ratio(const std::function<void()>& a, const std::function<void()>& b,
                          std::size_t pairs, std::vector<double>* a_times = nullptr);

/// Move the calling thread to one CPU — the `turn`-th, cycling through the
/// CPUs this process may use — and leave its CPU set as it was, so the
/// scheduler may move it on and threads it starts may use every CPU. On a
/// shared host cores differ in speed by up to ~1.5x and a single-threaded
/// loop tends to stay on the core it runs on; moving it round-robin before
/// each repeated sample spreads the samples over every core, so their median
/// does not depend on where the thread happened to sit.
void move_to_cpu(std::size_t turn);

/// Peak resident set size (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(int pid = 0);

}  // namespace perfbench
