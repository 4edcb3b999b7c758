#include "measure.hpp"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

/// Inclusive linear interpolation at fraction `p` of a sorted sample set.
double interpolate(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double position = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return sorted[lower] + weight * (sorted[upper] - sorted[lower]);
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) {
    return summary;
  }
  std::sort(samples.begin(), samples.end());
  summary.median = interpolate(samples, 0.5);
  summary.q1 = interpolate(samples, 0.25);
  summary.q3 = interpolate(samples, 0.75);
  summary.p99 = interpolate(samples, 0.99);
  return summary;
}

std::string describe(const std::string& what, const Summary& summary, const char* unit) {
  std::ostringstream line;
  line << what << ": median " << summary.median << " " << unit << " (q1 " << summary.q1
       << ", q3 " << summary.q3 << ", n=" << summary.count << ")";
  return line.str();
}

std::vector<double> repeat_timed(const std::function<void()>& body, std::size_t warmup,
                                 double budget_s, std::size_t min_reps,
                                 std::size_t max_reps) {
  for (std::size_t i = 0; i < warmup; ++i) {
    body();
  }
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < max_reps &&
         (times.size() < min_reps ||
          (!times.empty() && seconds_since(start) + times.back() <= budget_s))) {
    const Clock::time_point t0 = Clock::now();
    body();
    times.push_back(seconds_since(t0));
  }
  return times;
}

Summary interleaved_ratio(const std::function<void()>& a, const std::function<void()>& b,
                          std::size_t pairs, std::vector<double>* a_times) {
  const auto time = [](const std::function<void()>& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    return seconds_since(t0);
  };
  std::vector<double> ratios;
  for (std::size_t i = 0; i < pairs; ++i) {
    double ta = 0.0;
    double tb = 0.0;
    if (i % 2 == 0) {
      ta = time(a);
      tb = time(b);
    } else {
      tb = time(b);
      ta = time(a);
    }
    if (a_times != nullptr) {
      a_times->push_back(ta);
    }
    ratios.push_back(ta / tb);
  }
  return summarize(std::move(ratios));
}

void move_to_cpu(std::size_t turn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) == 0) {
    return;
  }
  std::size_t nth = turn % static_cast<std::size_t>(CPU_COUNT(&allowed));
  int cpu = 0;
  for (; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && nth-- == 0) {
      break;
    }
  }
  cpu_set_t target;
  CPU_ZERO(&target);
  CPU_SET(cpu, &target);
  // Narrowing the set migrates the thread before the call returns; widening
  // it again leaves the thread where it now is.
  if (sched_setaffinity(0, sizeof(target), &target) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
