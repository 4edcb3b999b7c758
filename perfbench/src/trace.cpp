#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> open_spans;

/// Length of the union of `intervals` clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      reach = end;
    }
  }
  return total;
}

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) {
    return;
  }
  tracer_ = &tracer;
  name_ = name;
  id_ = tracer.next_id();
  parent_ = open_spans.empty() ? 0 : open_spans.back();
  open_spans.push_back(id_);
  start_ = tracer.now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  const double end = tracer_->now();
  open_spans.pop_back();
  tracer_->record(SpanRecord{id_, parent_, name_, start_, end});
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Tracer::add(std::string name, std::uint64_t parent, double start, double end) {
  if (!enabled_) {
    return;
  }
  record(SpanRecord{next_id(), parent, std::move(name), start, end});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> self_time_by_name(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans) {
    double time = span.end - span.start;
    if (const auto it = children.find(span.id); it != children.end()) {
      time -= covered(it->second, span.start, span.end);
    }
    self[span.name] += time;
  }
  return self;
}

}  // namespace

std::map<std::string, double> write_trace(const std::string& dir, const std::string& workload,
                   const std::vector<SpanRecord>& spans, double tracing_overhead,
                   const std::vector<std::string>& notes) {
  {
    std::ofstream out(dir + "/" + workload + "_spans.json");
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      out << "  {\"id\": " << span.id << ", \"parent\": " << span.parent
          << ", \"name\": \"" << span.name << "\", \"start\": " << fixed(span.start, 9)
          << ", \"end\": " << fixed(span.end, 9) << "}" << (i + 1 < spans.size() ? "," : "")
          << "\n";
    }
    out << "]\n";
  }

  double root_time = 0.0;
  std::size_t roots = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent == 0) {
      root_time += span.end - span.start;
      ++roots;
    }
  }
  const std::map<std::string, double> by_name = self_time_by_name(spans);
  std::map<std::string, double> by_layer;
  for (const auto& [name, time] : by_name) {
    by_layer[layer_of(name)] += time;
  }
  const double share_base = root_time > 0.0 ? root_time : 1.0;
  const double coverage = 1.0 - by_layer["bench"] / share_base;

  std::ostringstream table;
  table << "# Where the time goes: " << workload << "\n\n"
        << roots << " traced root spans (timed passes or jobs), "
        << fixed(root_time, 3) << " s in total. Self time is a span's duration\n"
        << "minus the part its child spans cover; shares are of the root time.\n"
        << "Layer spans cover " << fixed(100.0 * coverage, 1)
        << "% of it; tracing overhead " << fixed(100.0 * tracing_overhead, 2)
        << "% against untraced passes.\n\n"
        << "| layer | self s | share |\n|---|---:|---:|\n";
  std::vector<std::pair<std::string, double>> layers(by_layer.begin(), by_layer.end());
  std::sort(layers.begin(), layers.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [layer, time] : layers) {
    table << "| " << layer << " | " << fixed(time, 4) << " | "
          << fixed(100.0 * time / share_base, 1) << "% |\n";
  }
  table << "\n| span | self s | share |\n|---|---:|---:|\n";
  std::vector<std::pair<std::string, double>> names(by_name.begin(), by_name.end());
  std::sort(names.begin(), names.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [name, time] : names) {
    table << "| " << name << " | " << fixed(time, 4) << " | "
          << fixed(100.0 * time / share_base, 1) << "% |\n";
  }
  if (!notes.empty()) {
    table << "\n";
    for (const std::string& note : notes) {
      table << note << "\n";
    }
  }
  std::ofstream(dir + "/" + workload + "_where.md") << table.str();
  std::map<std::string, double> shares;
  for (const auto& [layer, time] : by_layer) {
    shares[layer] = time / share_base;
  }
  return shares;
}

}  // namespace perfbench
