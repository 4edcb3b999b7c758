// retscan benchmark binary.
//
//   perfbench --workload retention|atpg|faultsim|serve --seed N
//             --seconds S --trace 0|1 --retscan PATH --circuits DIR
//             --work DIR --out DIR
//
// Normally launched by perfbench/run.py, which builds it first and turns
// the last line of stdout (checks and measured values as JSON) into the
// benchmark result. The exit code is non-zero when any oracle check failed.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "retscan/campaign.hpp"
#include "workloads.hpp"

namespace perfbench {

void finish_trace(const Options& opts, Report& report, const Tracer& tracer,
                  double tracing_overhead, const std::vector<std::string>& notes) {
  std::map<std::string, double> shares =
      write_trace(opts.out, opts.workload, tracer.spans(), tracing_overhead, notes);
  for (const auto& [layer, share] : shares) {
    if (layer != "bench") {
      report.set("share." + layer, share);
    }
  }
  report.set("trace.coverage", 1.0 - shares["bench"]);
  report.set("trace.overhead", tracing_overhead);
}

void cpu_warmup(double seconds) {
  std::vector<std::jthread> spinners;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
    spinners.emplace_back([seconds] {
      const Clock::time_point start = Clock::now();
      std::uint64_t x = 1;
      while (seconds_since(start) < seconds) {
        for (int i = 0; i < 10000; ++i) {
          x = x * 6364136223846793005ull + 1442695040888963407ull;
        }
      }
      volatile std::uint64_t sink = x;
      (void)sink;
    });
  }
}

PassTimes run_passes(const Options& opts, std::size_t min_passes,
                     const std::function<void()>& untraced,
                     const std::function<void()>& traced,
                     const std::function<void()>& between) {
  PassTimes times;
  const auto timed = [](const std::function<void()>& body, std::vector<double>& out) {
    const Clock::time_point t0 = Clock::now();
    body();
    out.push_back(seconds_since(t0));
  };
  const auto last_round = [&] {
    return (times.untraced.empty() ? 0.0 : times.untraced.back()) +
           (times.traced.empty() ? 0.0 : times.traced.back());
  };
  const Clock::time_point start = Clock::now();
  while (times.untraced.size() < min_passes ||
         seconds_since(start) + last_round() <= opts.seconds) {
    if (!opts.trace) {
      timed(untraced, times.untraced);
    } else if (times.untraced.size() % 2 == 0) {
      // Alternate which side runs first so neither gains from going second.
      timed(untraced, times.untraced);
      timed(traced, times.traced);
    } else {
      timed(traced, times.traced);
      timed(untraced, times.untraced);
    }
    between();
  }
  return times;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt): decorrelated per-campaign seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

using namespace perfbench;

namespace {

constexpr double kWarmupSeconds = 1.0;

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::map<std::string, std::string*> text_flags = {
      {"--workload", &opts.workload}, {"--retscan", &opts.retscan},
      {"--circuits", &opts.circuits}, {"--work", &opts.work},
      {"--out", &opts.out}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (const auto it = text_flags.find(flag); it != text_flags.end()) {
      *it->second = value;
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      const std::optional<std::uint64_t> number = retscan::parse_u64(value);
      if (!number) {
        return usage(flag + " needs a non-negative integer, got '" + value + "'");
      }
      if (flag == "--seed") {
        opts.seed = *number;
      } else if (flag == "--seconds") {
        opts.seconds = static_cast<double>(*number);
      } else {
        opts.trace = *number != 0;
      }
    } else {
      return usage("unknown flag '" + flag + "'");
    }
  }
  if (opts.circuits.empty() || opts.work.empty() || opts.out.empty() ||
      opts.retscan.empty()) {
    return usage("--retscan, --circuits, --work and --out are required");
  }

  const std::map<std::string, void (*)(const Options&, Report&, Tracer&)> workloads = {
      {"retention", run_retention},
      {"atpg", run_atpg},
      {"faultsim", run_faultsim},
      {"serve", run_serve}};
  const auto workload = workloads.find(opts.workload);
  if (workload == workloads.end()) {
    return usage("unknown workload '" + opts.workload + "'");
  }

  Report report;
  Tracer tracer(opts.trace);
  // On a shared VM the first second of load after idle runs measurably
  // slower; busy every core before anything is timed.
  cpu_warmup(kWarmupSeconds);
  try {
    workload->second(opts, report, tracer);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << opts.workload << ": " << error.what() << "\n";
    return 1;
  }
  return report.finish();
}
