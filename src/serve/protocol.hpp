#pragma once

/// serve wire protocol — the shared vocabulary of the `retscan serve`
/// daemon and the `retscan submit`/`jobs`/`cancel` client commands.
///
/// Framing is one JSON object per LF-terminated line on a local
/// AF_UNIX stream socket. Requests carry {"cmd": ...}; responses carry
/// {"ok": true, ...} or {"ok": false, "error": "..."}. The protocol is
/// versioned (kProtocolVersion) and the daemon rejects clients that ask
/// for a version it does not speak.
///
/// A campaign's statistics cross the wire as a ResultSummary: every
/// counter as an exact u64 (never a double — counters like 100M-sequence
/// budgets must survive the round trip bit-for-bit), plus the resolved
/// execution shape. summary_digest() hashes only the statistics-bearing
/// fields, so two runs of the same spec compare equal across thread
/// counts, sessions and daemon restarts — the serve CI job asserts cold
/// vs artifact-warm submissions digest-identically.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "retscan/campaign.hpp"
#include "serve/json.hpp"

namespace retscan::serve {

/// Bumped whenever a message shape changes incompatibly.
inline constexpr std::uint64_t kProtocolVersion = 1;

/// Socket path resolution: explicit flag > RETSCAN_SOCKET > ./retscan.sock.
std::string default_socket_path();

/// Connected AF_UNIX stream socket, or -1 with errno set.
int connect_socket(const std::string& path);

/// Write one LF-terminated JSON line; false when the peer is gone
/// (MSG_NOSIGNAL: a vanished peer must not SIGPIPE this process).
bool send_line(int fd, const Json& message);

/// Where a submitted job is in its lifecycle.
enum class JobState {
  Queued,     ///< accepted, waiting for a driver slot
  Running,    ///< campaign body executing on the shared pool
  Done,       ///< finished with CampaignStatus::Complete
  Failed,     ///< spec/setup/run error; see the job's error text
  Cancelled,  ///< cancel request (client or daemon drain) took effect
  Timeout,    ///< the spec's deadline_ms expired mid-run
};

const char* to_string(JobState state);
bool from_string(std::string_view text, JobState& out);
bool is_terminal(JobState state);

/// Flattened, wire-safe image of a CampaignResult. Counters are exact
/// u64s; rates are recomputed from them on display, never shipped as
/// doubles. Only the section matching `kind` is meaningful, mirroring
/// CampaignResult itself.
struct ResultSummary {
  std::string kind;      ///< to_string(CampaignKind)
  std::string backend;   ///< resolved backend actually run
  std::string schedule;  ///< schedule the gate-level engines were asked for
  std::string status;    ///< to_string(CampaignStatus)
  std::uint64_t threads = 1;
  std::uint64_t shard_count = 1;
  std::uint64_t shards_completed = 0;
  std::uint64_t shards_resumed = 0;
  double seconds = 0.0;
  std::string checkpoint;  ///< journal path, for the status/resumed lines
  bool passed = false;

  // Validation / Injection (testbench/harness.hpp ValidationStats).
  std::uint64_t sequences = 0;
  std::uint64_t errors_injected = 0;
  std::uint64_t sequences_with_errors = 0;
  std::uint64_t detected = 0;
  std::uint64_t corrected = 0;
  std::uint64_t flagged_uncorrectable = 0;
  std::uint64_t comparator_mismatches = 0;
  std::uint64_t silent_corruptions = 0;

  // FaultCoverage / ScanTest (atpg/atpg.hpp, atpg/scan_test.hpp).
  std::uint64_t atpg_patterns = 0;
  std::uint64_t atpg_total_faults = 0;
  std::uint64_t atpg_detected_random = 0;
  std::uint64_t atpg_detected_podem = 0;
  std::uint64_t atpg_untestable = 0;
  std::uint64_t atpg_aborted = 0;
  std::uint64_t faults_total = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t scan_patterns_applied = 0;
  std::uint64_t scan_mismatches = 0;

  // Schedule telemetry (sim/schedule.hpp) — thread-count invariant, so it
  // participates in the digest.
  std::uint64_t event_sweeps = 0;
  std::uint64_t full_sweeps = 0;
  std::uint64_t full_sweep_fallbacks = 0;
  std::uint64_t event_instrs = 0;
  std::uint64_t sweep_instrs = 0;
  std::uint64_t instr_capacity = 0;
};

/// Flatten a finished campaign for the wire.
ResultSummary summarize(const CampaignResult& result, const CampaignSpec& spec);

/// FNV-1a over the statistics-bearing fields only: kind, status, pass
/// verdict, every counter and the schedule telemetry. Deliberately excludes
/// threads, shard sizes realized per run (shard_count IS included — it is
/// seed/spec-determined, not thread-determined), wall-clock seconds and the
/// checkpoint path, so equal work ⇒ equal digest at any thread count.
std::uint64_t summary_digest(const ResultSummary& summary);

Json to_json(const ResultSummary& summary);
ResultSummary summary_from_json(const Json& json);

/// The `ran:`/`resumed:`/`status:`/`result:`/`schedule:`/`verdict:` block
/// both front ends print: `retscan run` from the summary of its own result,
/// `retscan submit --wait` from the daemon's — one printer, so the serve CI
/// job's diff of `^(result|schedule|verdict):` lines between the two holds
/// for every campaign kind.
void print_summary(std::ostream& out, const ResultSummary& summary);

/// The CLI override flags a submit request may attach to a spec file —
/// the same knobs `retscan run` accepts, shipped as JSON so the daemon
/// applies them after parsing the spec on its side of the socket.
struct SubmitOverrides {
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> threads;
  std::optional<std::uint64_t> sequences;
  std::optional<std::string> backend;
  std::optional<std::string> schedule;
  std::optional<std::string> checkpoint;
  bool resume = false;
  std::optional<std::uint64_t> deadline_ms;
};

Json to_json(const SubmitOverrides& overrides);
SubmitOverrides overrides_from_json(const Json& json);

/// Strict unsigned flag value — the spec-file rules (retscan::parse_u64):
/// '-1' and '10abc' are errors, not silently wrapped/truncated values.
/// `max` guards fields narrower than 64 bits. Throws retscan::Error.
std::uint64_t parse_flag_u64(const std::string& flag, const std::string& value,
                             std::uint64_t max = ~std::uint64_t{0});

/// The one parser of the run override flags, shared by `retscan run`,
/// `describe` and `submit`: `--seed N --threads N --sequences N
/// --backend NAME --schedule NAME --checkpoint PATH --resume
/// --deadline-ms N`. Backend and schedule names are checked here, with the
/// message apply_overrides throws, so a bad name never reaches the daemon.
/// Throws retscan::Error on an unknown flag or a missing or bad value.
SubmitOverrides parse_overrides(const std::vector<std::string>& args);

/// Apply overrides onto a parsed spec — the one applier behind both front
/// ends. Re-checks the thread count and the backend/schedule names, since
/// JSON from the socket is outside input, and throws retscan::Error with
/// parse_overrides' message when one is bad.
void apply_overrides(SpecFile& file, const SubmitOverrides& overrides);

/// The job state a finished campaign ends in.
JobState state_for(CampaignStatus status);

/// Map a terminal job state + summary to the exit-code convention of both
/// front ends: 0 pass, 1 fail, 2 spec/daemon error, 3 deadline expired,
/// 130 cancelled.
int exit_code_for(JobState state, const ResultSummary* summary);

}  // namespace retscan::serve
