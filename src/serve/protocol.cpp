#include "serve/protocol.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <ostream>

#include "util/fnv.hpp"

namespace retscan::serve {

std::string default_socket_path() {
  const char* env = std::getenv("RETSCAN_SOCKET");
  if (env != nullptr && *env != '\0') {
    return env;
  }
  return "retscan.sock";
}

int connect_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int connect_errno = errno;
    ::close(fd);
    errno = connect_errno;
    return -1;
  }
  return fd;
}

bool send_line(int fd, const Json& message) {
  const std::string line = message.dump() + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued:    return "queued";
    case JobState::Running:   return "running";
    case JobState::Done:      return "done";
    case JobState::Failed:    return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Timeout:   return "timeout";
  }
  return "?";
}

bool from_string(std::string_view text, JobState& out) {
  if (text == "queued")    { out = JobState::Queued;    return true; }
  if (text == "running")   { out = JobState::Running;   return true; }
  if (text == "done")      { out = JobState::Done;      return true; }
  if (text == "failed")    { out = JobState::Failed;    return true; }
  if (text == "cancelled") { out = JobState::Cancelled; return true; }
  if (text == "timeout")   { out = JobState::Timeout;   return true; }
  return false;
}

bool is_terminal(JobState state) {
  return state != JobState::Queued && state != JobState::Running;
}

ResultSummary summarize(const CampaignResult& result, const CampaignSpec& spec) {
  ResultSummary s;
  s.kind = to_string(result.kind);
  s.backend = to_string(result.backend);
  s.schedule = to_string(result.schedule);
  s.status = to_string(result.status);
  s.threads = result.threads;
  s.shard_count = result.shard_count;
  s.shards_completed = result.shards_completed;
  s.shards_resumed = result.shards_resumed;
  s.seconds = result.seconds;
  s.checkpoint = spec.checkpoint;
  s.passed = result.passed();

  s.sequences = result.validation.sequences;
  s.errors_injected = result.validation.errors_injected;
  s.sequences_with_errors = result.validation.sequences_with_errors;
  s.detected = result.validation.detected;
  s.corrected = result.validation.corrected;
  s.flagged_uncorrectable = result.validation.flagged_uncorrectable;
  s.comparator_mismatches = result.validation.comparator_mismatches;
  s.silent_corruptions = result.validation.silent_corruptions;

  s.atpg_patterns = result.atpg.patterns.size();
  s.atpg_total_faults = result.atpg.total_faults;
  s.atpg_detected_random = result.atpg.detected_random;
  s.atpg_detected_podem = result.atpg.detected_podem;
  s.atpg_untestable = result.atpg.untestable;
  s.atpg_aborted = result.atpg.aborted;
  s.faults_total = result.faults.total_faults;
  s.faults_detected = result.faults.detected;
  s.scan_patterns_applied = result.scan_test.patterns_applied;
  s.scan_mismatches = result.scan_test.mismatches;

  s.event_sweeps = result.activity.event_sweeps;
  s.full_sweeps = result.activity.full_sweeps;
  s.full_sweep_fallbacks = result.activity.full_sweep_fallbacks;
  s.event_instrs = result.activity.event_instrs;
  s.sweep_instrs = result.activity.sweep_instrs;
  s.instr_capacity = result.activity.instr_capacity;
  return s;
}

namespace {

/// One u64 counter of ResultSummary: its wire key, and whether it bears
/// statistics (enters summary_digest). Table order is digest order.
struct Counter {
  const char* key;
  std::uint64_t ResultSummary::*member;
  bool in_digest;
};

constexpr Counter kCounters[] = {
    {"threads", &ResultSummary::threads, false},
    {"shard_count", &ResultSummary::shard_count, true},
    {"shards_completed", &ResultSummary::shards_completed, true},
    {"shards_resumed", &ResultSummary::shards_resumed, false},
    {"sequences", &ResultSummary::sequences, true},
    {"errors_injected", &ResultSummary::errors_injected, true},
    {"sequences_with_errors", &ResultSummary::sequences_with_errors, true},
    {"detected", &ResultSummary::detected, true},
    {"corrected", &ResultSummary::corrected, true},
    {"flagged_uncorrectable", &ResultSummary::flagged_uncorrectable, true},
    {"comparator_mismatches", &ResultSummary::comparator_mismatches, true},
    {"silent_corruptions", &ResultSummary::silent_corruptions, true},
    {"atpg_patterns", &ResultSummary::atpg_patterns, true},
    {"atpg_total_faults", &ResultSummary::atpg_total_faults, true},
    {"atpg_detected_random", &ResultSummary::atpg_detected_random, true},
    {"atpg_detected_podem", &ResultSummary::atpg_detected_podem, true},
    {"atpg_untestable", &ResultSummary::atpg_untestable, true},
    {"atpg_aborted", &ResultSummary::atpg_aborted, true},
    {"faults_total", &ResultSummary::faults_total, true},
    {"faults_detected", &ResultSummary::faults_detected, true},
    {"scan_patterns_applied", &ResultSummary::scan_patterns_applied, true},
    {"scan_mismatches", &ResultSummary::scan_mismatches, true},
    {"event_sweeps", &ResultSummary::event_sweeps, true},
    {"full_sweeps", &ResultSummary::full_sweeps, true},
    {"full_sweep_fallbacks", &ResultSummary::full_sweep_fallbacks, true},
    {"event_instrs", &ResultSummary::event_instrs, true},
    {"sweep_instrs", &ResultSummary::sweep_instrs, true},
    {"instr_capacity", &ResultSummary::instr_capacity, true},
};

}  // namespace

std::uint64_t summary_digest(const ResultSummary& s) {
  Fnv1a digest;
  digest.add_text(s.kind);
  digest.add_text(s.schedule);
  digest.add_text(s.status);
  digest.add(s.passed ? 1 : 0);
  for (const Counter& counter : kCounters) {
    if (counter.in_digest) {
      digest.add(s.*counter.member);
    }
  }
  return digest.hash;
}

Json to_json(const ResultSummary& s) {
  Json json = Json::Object{};
  json.set("kind", s.kind)
      .set("backend", s.backend)
      .set("schedule", s.schedule)
      .set("status", s.status)
      .set("seconds", s.seconds)
      .set("checkpoint", s.checkpoint)
      .set("passed", s.passed);
  for (const Counter& counter : kCounters) {
    json.set(counter.key, s.*counter.member);
  }
  json.set("digest", summary_digest(s));
  return json;
}

ResultSummary summary_from_json(const Json& json) {
  ResultSummary s;
  s.kind = json.at("kind").as_string();
  s.backend = json.at("backend").as_string();
  s.schedule = json.at("schedule").as_string();
  s.status = json.at("status").as_string();
  s.seconds = json.at("seconds").as_double();
  s.checkpoint = json.at("checkpoint").as_string();
  s.passed = json.at("passed").as_bool();
  for (const Counter& counter : kCounters) {
    s.*counter.member = json.at(counter.key).as_u64();
  }
  // The shipped digest is advisory (recomputable); verify when present so
  // a corrupted relay is caught at the protocol layer.
  if (const Json* digest = json.find("digest")) {
    if (digest->as_u64() != summary_digest(s)) {
      throw Error("result summary digest mismatch (corrupt relay?)");
    }
  }
  return s;
}

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0 ? 1.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

/// ATPG coverage over testable faults (AtpgResult::coverage).
double atpg_coverage(const ResultSummary& s) {
  return ratio(s.atpg_detected_random + s.atpg_detected_podem,
               s.atpg_total_faults - s.atpg_untestable);
}

void print_fault_counts(std::ostream& out, const ResultSummary& s) {
  out << 100.0 * ratio(s.faults_detected, s.faults_total) << "% ("
      << s.faults_detected << "/" << s.faults_total << " faults)\n";
}

}  // namespace

void print_summary(std::ostream& out, const ResultSummary& s) {
  out << "ran:      " << s.kind << " on " << s.backend << ", " << s.threads
      << (s.threads == 1 ? " thread x " : " threads x ") << s.shard_count
      << (s.shard_count == 1 ? " shard, " : " shards, ") << s.seconds << " s\n";
  if (s.shards_resumed != 0) {
    out << "resumed:  " << s.shards_resumed << " of " << s.shard_count
        << " shards merged from " << s.checkpoint << "\n";
  }
  if (s.status != "complete") {
    // Interrupted: the statistics below are partial (completed shards
    // only) — still exact for those shards, and checkpointed if armed.
    out << "status:   " << s.status << " after " << s.shards_completed
        << " of " << s.shard_count << " shards";
    if (!s.checkpoint.empty()) {
      out << "; journal " << s.checkpoint << " holds the completed work "
          << "(rerun with --resume)";
    }
    out << "\n";
  }
  out << "result:   ";
  if (s.kind == "validation" || s.kind == "injection") {
    out << s.sequences << " sequences, " << s.sequences_with_errors
        << " with errors, detection "
        << 100.0 * ratio(s.detected, s.sequences_with_errors)
        << "%, correction "
        << 100.0 * ratio(s.corrected, s.sequences_with_errors) << "%\n"
        << "          flagged-uncorrectable " << s.flagged_uncorrectable
        << ", silent corruptions " << s.silent_corruptions << "\n";
    if (s.event_sweeps + s.full_sweeps != 0) {
      const double dirty =
          s.instr_capacity == 0
              ? 0.0
              : static_cast<double>(s.event_instrs + s.sweep_instrs) /
                    static_cast<double>(s.instr_capacity);
      out << "schedule: " << s.schedule << " — " << s.event_sweeps
          << " event settles, " << s.full_sweeps << " full sweeps ("
          << s.full_sweep_fallbacks << " fallbacks), avg dirty "
          << "fraction " << dirty << "\n";
    }
  } else if (s.kind == "fault-coverage") {
    out << s.atpg_patterns << " patterns, coverage " << 100.0 * atpg_coverage(s)
        << "% (" << s.faults_detected << "/" << s.faults_total
        << " faults via fault-sim, " << s.atpg_untestable << " untestable, "
        << s.atpg_aborted << " aborted)\n";
  } else if (s.kind == "transition-delay") {
    out << s.atpg_patterns << " patterns ("
        << (s.atpg_patterns == 0 ? 0 : s.atpg_patterns - 1)
        << " launch/capture pairs), transition coverage ";
    print_fault_counts(out, s);
  } else if (s.kind == "bridging") {
    out << s.atpg_patterns << " patterns, bridging coverage ";
    print_fault_counts(out, s);
  } else if (s.kind == "sequential-coverage") {
    // Sequence and cycle counts are on `run`'s `workload:` plan line.
    out << "sequential coverage ";
    print_fault_counts(out, s);
  } else {
    out << s.scan_patterns_applied << " patterns delivered, "
        << s.scan_mismatches << " mismatches (coverage "
        << 100.0 * atpg_coverage(s) << "%, " << s.atpg_untestable
        << " untestable, " << s.atpg_aborted << " aborted)\n";
  }
  out << "verdict:  " << (s.passed ? "PASS" : "FAIL") << "\n";
}

Json to_json(const SubmitOverrides& overrides) {
  Json json = Json::Object{};
  if (overrides.seed)      json.set("seed", *overrides.seed);
  if (overrides.threads)   json.set("threads", *overrides.threads);
  if (overrides.sequences) json.set("sequences", *overrides.sequences);
  if (overrides.backend)   json.set("backend", *overrides.backend);
  if (overrides.schedule)  json.set("schedule", *overrides.schedule);
  if (overrides.checkpoint) json.set("checkpoint", *overrides.checkpoint);
  if (overrides.resume)    json.set("resume", true);
  if (overrides.deadline_ms) json.set("deadline_ms", *overrides.deadline_ms);
  return json;
}

SubmitOverrides overrides_from_json(const Json& json) {
  SubmitOverrides overrides;
  if (const Json* v = json.find("seed"))      overrides.seed = v->as_u64();
  if (const Json* v = json.find("threads"))   overrides.threads = v->as_u64();
  if (const Json* v = json.find("sequences")) overrides.sequences = v->as_u64();
  if (const Json* v = json.find("backend"))   overrides.backend = v->as_string();
  if (const Json* v = json.find("schedule"))  overrides.schedule = v->as_string();
  if (const Json* v = json.find("checkpoint")) {
    overrides.checkpoint = v->as_string();
  }
  if (const Json* v = json.find("resume"))    overrides.resume = v->as_bool();
  if (const Json* v = json.find("deadline_ms")) {
    overrides.deadline_ms = v->as_u64();
  }
  return overrides;
}

namespace {

constexpr std::uint64_t kMaxThreads = 4096;

std::string out_of_range(const std::string& flag, const std::string& value,
                         std::uint64_t max) {
  return flag + " = " + value + " is out of range (max " + std::to_string(max) + ")";
}

Backend checked_backend(const std::string& name) {
  Backend backend = Backend::Auto;
  if (!from_string(name, backend)) {
    throw Error("unknown backend '" + name +
                "' (want auto, reference or packed-parallel)");
  }
  return backend;
}

Schedule checked_schedule(const std::string& name) {
  Schedule schedule = Schedule::Auto;
  if (!from_string(name, schedule)) {
    throw Error("unknown schedule '" + name + "' (want auto, sweep or event)");
  }
  return schedule;
}

}  // namespace

std::uint64_t parse_flag_u64(const std::string& flag, const std::string& value,
                             std::uint64_t max) {
  const std::optional<std::uint64_t> parsed = parse_u64(value);
  if (!parsed) {
    throw Error(flag + " needs a non-negative integer, got '" + value + "'");
  }
  if (*parsed > max) {
    throw Error(out_of_range(flag, value, max));
  }
  return *parsed;
}

SubmitOverrides parse_overrides(const std::vector<std::string>& args) {
  SubmitOverrides overrides;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--resume") {
      overrides.resume = true;
      continue;
    }
    // The flag's operand; consumed on first use.
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw Error(flag + " needs a value");
      }
      return args[++i];
    };
    if (flag == "--seed") {
      overrides.seed = parse_flag_u64(flag, value());
    } else if (flag == "--threads") {
      overrides.threads = parse_flag_u64(flag, value(), kMaxThreads);
    } else if (flag == "--sequences") {
      overrides.sequences = parse_flag_u64(flag, value());
    } else if (flag == "--backend") {
      overrides.backend = value();
      checked_backend(*overrides.backend);
    } else if (flag == "--schedule") {
      overrides.schedule = value();
      checked_schedule(*overrides.schedule);
    } else if (flag == "--checkpoint") {
      overrides.checkpoint = value();
    } else if (flag == "--deadline-ms") {
      overrides.deadline_ms = parse_flag_u64(flag, value());
    } else {
      throw Error("unknown flag '" + flag + "'");
    }
  }
  return overrides;
}

void apply_overrides(SpecFile& file, const SubmitOverrides& overrides) {
  if (overrides.seed) {
    file.campaign.seed = *overrides.seed;
  }
  if (overrides.threads) {
    if (*overrides.threads > kMaxThreads) {
      throw Error(out_of_range("--threads", std::to_string(*overrides.threads),
                               kMaxThreads));
    }
    file.campaign.threads = static_cast<unsigned>(*overrides.threads);
  }
  if (overrides.sequences) {
    file.campaign.sequences = *overrides.sequences;
  }
  if (overrides.backend) {
    file.campaign.backend = checked_backend(*overrides.backend);
  }
  if (overrides.schedule) {
    file.campaign.schedule = checked_schedule(*overrides.schedule);
  }
  if (overrides.checkpoint) {
    file.campaign.checkpoint = *overrides.checkpoint;
  }
  if (overrides.resume) {
    file.campaign.resume = true;
  }
  if (overrides.deadline_ms) {
    file.campaign.deadline_ms = *overrides.deadline_ms;
  }
}

JobState state_for(CampaignStatus status) {
  switch (status) {
    case CampaignStatus::Complete:  return JobState::Done;
    case CampaignStatus::Cancelled: return JobState::Cancelled;
    case CampaignStatus::Timeout:   return JobState::Timeout;
  }
  return JobState::Failed;
}

int exit_code_for(JobState state, const ResultSummary* summary) {
  switch (state) {
    case JobState::Done:
      return summary != nullptr && summary->passed ? 0 : 1;
    case JobState::Cancelled:
      return 130;  // 128 + SIGINT, the shell convention for "interrupted"
    case JobState::Timeout:
      return 3;
    case JobState::Failed:
      return 2;
    case JobState::Queued:
    case JobState::Running:
      break;
  }
  return 2;
}

}  // namespace retscan::serve
