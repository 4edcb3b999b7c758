#pragma once

// Command-line options and the result report every workload fills in.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string retscan;   ///< path of the `retscan` CLI binary (serve daemon)
  std::string circuits;  ///< bench/circuits directory
  std::string work;      ///< scratch directory for specs, journals, sockets
  std::string out;       ///< where traced runs write spans and tables
};

class Report {
 public:
  /// Record a metric by name. Workloads set every metric they measure in
  /// either mode; perfbench/run.py picks the names BENCHMARK.json lists for
  /// the run's mode and attaches their units.
  void set(const std::string& name, double value);

  /// Count one checked operation; a false `ok` fails it and logs `what`.
  void check(bool ok, const std::string& what);

  /// A human-readable line printed ahead of the JSON result.
  void note(const std::string& line);

  bool correct() const { return failed_ == 0; }

  /// Print the notes, then one JSON line {"correct", "attempted", "failed",
  /// "values": {name: value}}; returns the process exit code (1 when a
  /// check failed or a value is not finite).
  int finish() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
