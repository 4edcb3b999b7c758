#pragma once

// In-memory span tracer for the traced benchmark run. Spans are recorded
// around the calls the benchmark makes into each retscan layer — the
// library itself is not instrumented — and written out when the run ends.
// A span's name is "<layer>.<operation>"; the layer prefix is what the
// "where the time goes" table aggregates over. "bench.*" spans are the
// benchmark's own roots (one per timed pass or job).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  double now() const { return seconds_since(epoch_); }

  /// RAII span: opened on construction, closed on destruction. Its parent is
  /// the innermost span open on the same thread. Inert when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_ = nullptr;
    const char* name_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double start_ = 0.0;
  };

  /// A span with explicit bounds — for phases measured elsewhere (the serve
  /// daemon's per-job setup/run seconds). No-op when tracing is off.
  void add(std::string name, std::uint64_t parent, double start, double end);

  std::vector<SpanRecord> spans() const;

 private:
  std::uint64_t next_id();
  void record(SpanRecord span);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// Write `<dir>/<workload>_spans.json` (every span) and `<dir>/<workload>_where.md`
/// (layer × share of run time, then span name × share). A span's self time
/// is its duration minus the part of its interval its children cover; a
/// span's layer is its name up to the first '.'. Shares are of the summed
/// duration of the root spans. `notes` lines are appended verbatim.
/// Returns the self-time share of each layer ("bench" = the roots' own).
std::map<std::string, double> write_trace(const std::string& dir, const std::string& workload,
                   const std::vector<SpanRecord>& spans, double tracing_overhead,
                   const std::vector<std::string>& notes);

}  // namespace perfbench
