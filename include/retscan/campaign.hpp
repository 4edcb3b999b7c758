#pragma once

/// retscan v2 public surface — declarative campaigns.
///
/// One spec describes any of the library's statistical workloads —
/// validation campaigns, fault-injection campaigns, fault-coverage /
/// ATPG runs, transition-delay / bridging / sequential coverage
/// measurements, and manufacturing scan-test deliveries — with uniform
/// seed / threads / shard knobs, and `run(Session&, spec)` routes it to
/// the fastest backend the session can offer (or exactly the backend you
/// pin). Same seed → bit-identical results at any thread count, and equal
/// to the engine entry point each backend routes onto (asserted by
/// tests/test_api.cpp).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "atpg/atpg.hpp"
#include "atpg/scan_test.hpp"
#include "core/protected_design.hpp"
#include "parallel/campaign_runner.hpp"
#include "testbench/harness.hpp"

namespace retscan {

class Session;

/// What the campaign measures.
enum class CampaignKind {
  Validation,    ///< Fig. 8 testbench: inject → detect/correct statistics
  Injection,     ///< validation driven by an electrical corruption model
  FaultCoverage, ///< ATPG + stuck-at fault simulation over the scan frame
  ScanTest,      ///< pattern delivery through the scan fabric, checked
  TransitionDelay,    ///< launch/capture pattern-pair transition-fault coverage
  Bridging,           ///< wired-AND/OR gate-input bridge coverage
  SequentialCoverage, ///< multi-cycle stuck-at coverage, no scan access
};

/// Execution strategy. `Auto` lets the session pick the fastest backend
/// that exists for the kind; the others pin it (useful for oracles and
/// perf baselines). Every backend produces the same statistics for the
/// same seed wherever an equivalence is defined (see tests/test_api.cpp).
enum class Backend {
  Auto,           ///< fastest available (always PackedParallel today)
  Reference,      ///< gate-level shards run the scalar simulator (one trial
                  ///< or pattern at a time); otherwise exactly PackedParallel
  PackedParallel, ///< 64-way lanes × the shared thread pool (threads = 1
                  ///< is the serial packed path)
};

/// Which model tier a validation campaign runs on.
enum class ValidationTier {
  Behavioral, ///< bit-exact behavioral protectors (paper-scale, fast)
  Structural, ///< gate-level simulated ProtectedDesign (slow, exact)
};

/// Canonical spellings — exactly the values the spec-file format and the
/// `retscan` CLI accept ("validation", "packed-parallel", "rush-model", ...).
const char* to_string(CampaignKind kind);
const char* to_string(Backend backend);
const char* to_string(ValidationTier tier);
const char* to_string(InjectionMode mode);

/// Inverse of to_string; returns false (out untouched) on unknown text.
bool from_string(std::string_view text, CampaignKind& out);
bool from_string(std::string_view text, Backend& out);
bool from_string(std::string_view text, ValidationTier& out);
bool from_string(std::string_view text, InjectionMode& out);

/// Options for Session::run_scan_test. Patterns always enter through the
/// narrow tsi/tso ports (the Fig. 5(b) concatenation): in a ProtectedDesign
/// the per-chain si ports are superseded by the monitor feedback muxes, so
/// full-width access (apply_scan_test) only applies to plain scanned
/// netlists, which a Session never wraps.
struct ScanTestOptions {
  Backend backend = Backend::Auto;
  /// Patterns per pool shard on every backend, floored to whole 64-lane
  /// batches; 0 → 256.
  std::size_t shard_size = 0;
};

/// Declarative description of one campaign. Geometry (FIFO, chains, code)
/// comes from the Session the spec runs on; the spec holds only the
/// workload. Construct with designated initializers:
///
///   CampaignSpec spec{.kind = CampaignKind::Validation,
///                     .seed = 2024,
///                     .sequences = 200000};
///   CampaignResult result = run(session, spec);
struct CampaignSpec {
  CampaignKind kind = CampaignKind::Validation;
  Backend backend = Backend::Auto;
  /// Campaign master seed. Every backend derives its per-shard / injector
  /// streams from this one value (for FaultCoverage/ScanTest it overrides
  /// atpg.seed so one knob controls the whole run).
  std::uint64_t seed = 1;
  /// Worker threads, on every backend; 0 → the session's pool
  /// (RETSCAN_THREADS / hardware_concurrency). A `retscan serve` job must
  /// leave it 0 or name the daemon's pool size; the job fails otherwise.
  unsigned threads = 0;
  /// Trials, fault-list entries or patterns per pool shard, on every
  /// backend; 0 → the kind's default (behavioral validation: 4096 trials;
  /// structural validation: 256, rounded up to whole 64-lane batches;
  /// coverage kinds: 128 faults, 64 for sequential coverage; scan-test: 256
  /// patterns, floored to whole 64-lane batches).
  std::size_t shard_size = 0;

  // --- Validation / Injection ------------------------------------------
  /// Sleep/wake trial count. Must be > 0 for validation kinds.
  std::size_t sequences = 0;
  ValidationTier tier = ValidationTier::Behavioral;
  /// Settle schedule for gate-level simulation (sim/schedule.hpp): Sweep
  /// evaluates the full compiled stream every settle, Event runs the
  /// dirty-net worklist, Auto defers to RETSCAN_SCHEDULE and then to
  /// per-engine activity probing. Statistics are bit-identical under every
  /// schedule; only throughput differs. Explicit Event is rejected where no
  /// gate-level sweep exists to schedule (behavioral tier, non-validation
  /// kinds) — use Auto there.
  Schedule schedule = Schedule::Auto;
  InjectionMode mode = InjectionMode::SingleRandom;
  std::size_t burst_size = 4;
  std::size_t burst_spread = 2;
  /// Electrical model, used when mode == InjectionMode::RushModel.
  CorruptionParameters corruption{};
  RushParameters rush{};

  // --- FaultCoverage / ScanTest / TransitionDelay / Bridging -----------
  /// Pattern generation. TransitionDelay pairs consecutive patterns
  /// (pattern k launches, k+1 captures), so N patterns exercise N-1
  /// transitions; Bridging replays the same set per bridge.
  AtpgOptions atpg{};

  // --- SequentialCoverage ----------------------------------------------
  /// Clock cycles per random primary-input sequence; `sequences` (above)
  /// counts the sequences. Must be > 0 for sequential-coverage campaigns
  /// and 0 (unset) everywhere else — no other kind steps a clock.
  std::size_t cycles = 0;

  // --- Durability (deadline: every kind; checkpoint: validation) -------
  /// Checkpoint journal path (`checkpoint =` spec key / `--checkpoint`):
  /// the file is created once, sized to one CRC'd record slot per shard,
  /// and mapped; each completed shard is copied into its own slot (no
  /// system call), so an interrupted campaign loses at most the shards in
  /// flight. Empty = no checkpointing. Validation kinds only, any backend
  /// (campaign_fingerprint binds Reference's own).
  std::string checkpoint;
  /// Resume from `checkpoint` (`resume =` / `--resume`): the journal
  /// header is validated against the current spec/design/version
  /// fingerprint, completed shards are merged from the journal in shard
  /// order, and the rest run — the final CampaignResult is bit-identical
  /// to an uninterrupted run. Requires `checkpoint` to be set.
  bool resume = false;
  /// Wall-clock budget (`deadline_ms =` / `--deadline-ms`), for every
  /// kind: once elapsed, shards not yet started are skipped (ATPG stops at
  /// its next committed target) and the result carries
  /// CampaignStatus::Timeout with the partial statistics (checkpointed if
  /// a journal is armed) instead of running forever. nullopt = no budget;
  /// an explicit 0 is rejected by validate().
  std::optional<std::uint64_t> deadline_ms;
};

/// Everything a campaign produced. Only the section matching `kind` is
/// populated; the execution-shape fields are always filled. The shard
/// tally (shard_count, status, shards_completed, shards_resumed) is the
/// shard loop's: status is Complete unless a SIGINT / cancellation request
/// or an expired deadline_ms stopped the run early; then the statistics
/// cover shards_completed of shard_count shards and passed() is false
/// regardless of the verdict counters.
struct CampaignResult : parallel::ShardTally {
  CampaignKind kind = CampaignKind::Validation;
  Backend backend = Backend::Reference; ///< resolved strategy actually run
  /// Schedule the gate-level engines were asked to run (Auto means each
  /// engine probed its own activity; see `activity` for what that chose).
  Schedule schedule = Schedule::Sweep;
  unsigned threads = 1;
  double seconds = 0.0; ///< wall-clock of the campaign body

  /// Activity telemetry from the gate-level engines (avg_dirty_fraction(),
  /// event_sweeps, full_sweep_fallbacks, ...) — why Auto chose what it
  /// chose. All-zero for behavioral campaigns and non-validation kinds.
  ScheduleTelemetry activity{};

  ValidationStats validation{}; ///< Validation / Injection
  AtpgResult atpg{};            ///< FaultCoverage / ScanTest / TransitionDelay / Bridging
  /// FaultCoverage / TransitionDelay / Bridging / SequentialCoverage —
  /// detected_by indexes patterns, pattern *pairs*, patterns, and random
  /// sequences respectively (see atpg/fault_models.hpp).
  FaultSimResult faults{};
  ScanTestResult scan_test{};   ///< ScanTest

  /// Kind-appropriate "nothing escaped" verdict: no silent corruptions
  /// (validation kinds), all deliveries matched (scan test), always true
  /// for pure coverage measurements.
  bool passed() const;
};

/// Reject unrunnable specs with an actionable message (thrown as
/// retscan::Error): zero trial counts, injection with nothing to inject,
/// schedules with nothing to schedule, sessions lacking the golden model a
/// validation campaign needs, bad shard sizes.
void validate(const CampaignSpec& spec, const Session& session);

/// The strategy Auto resolves to (after validate()) — exposed so tools can
/// report what would run without running it.
Backend resolve_backend(const CampaignSpec& spec, const Session& session);

/// Worker threads a campaign runs with: spec.threads, else the session's
/// pool. run() picks its pool by this rule, so tools can report the count
/// without running.
unsigned resolve_threads(const CampaignSpec& spec, const Session& session);

/// Run the campaign on the session's design. Validates first; throws
/// retscan::Error on a bad spec.
CampaignResult run(Session& session, const CampaignSpec& spec);

/// Execution hooks for services embedding the campaign router — the
/// `retscan serve` daemon runs every job through these so concurrent
/// campaigns share one runner's pool and stay individually cancellable.
/// The pool itself interleaves concurrent campaigns fairly: each
/// parallel_for call gets the next free worker in round-robin turn.
/// All optional; run(session, spec) is exactly run(session, spec, {}).
/// None of the hooks can change campaign statistics: same seed → same
/// results, hooked or not (asserted by tests/test_serve.cpp).
struct RunHooks {
  /// Shared campaign runner (pool + warm workspaces) to execute on,
  /// overriding both the session's runner and the spec's threads knob.
  parallel::CampaignRunner* runner = nullptr;
  /// Caller-owned cancel token polled by the shard loop. When the spec
  /// carries deadline_ms, run() arms it on this token. nullptr → run()
  /// uses a private token (global-cancel + deadline only).
  CancelToken* cancel = nullptr;
  /// Per-shard progress observer, (shards_done, shard_count); called from
  /// pool threads. Every kind: validation trial shards, coverage fault
  /// shards, scan-test delivery shards (not the ATPG phase before them).
  std::function<void(std::size_t, std::size_t)> progress;
};

/// run() with service hooks — see RunHooks.
CampaignResult run(Session& session, const CampaignSpec& spec,
                   const RunHooks& hooks);

/// FNV-1a hash binding a checkpoint journal to one exact campaign: the
/// library version, the spec's statistics-shaping fields (kind, tier,
/// resolved schedule, seed, sequences, injection/corruption parameters, a
/// Reference backend) and the session's design geometry (FIFO shape +
/// protection architecture).
/// Two specs with equal fingerprints produce bit-identical shard outcomes,
/// which is what makes merging a journal from one into the other safe.
std::uint64_t campaign_fingerprint(const CampaignSpec& spec, const Session& session);

// --- campaign spec files (the `retscan run campaign.spec` format) --------

/// A parsed spec file: the design geometry plus the campaign. The textual
/// format is `key = value` lines with '#' comments; see
/// docs/spec-reference.md for the full key reference.
struct SpecFile {
  FifoSpec fifo{32, 32};
  ProtectionConfig protection;
  CampaignSpec campaign;
  /// `netlist = <path.v>`: import a structural-Verilog netlist instead of
  /// generating the golden FIFO. load_spec_file resolves a relative path
  /// against the spec file's directory, so specs can ship next to their
  /// circuits. Empty = FIFO generator (the fifo.* keys).
  std::string netlist_file;
};

/// The base netlist a spec describes, before protection: the imported
/// Verilog file when `netlist =` is set, the generated FIFO otherwise.
/// This is what `retscan describe` reports cell/flop counts from without
/// synthesizing anything.
Netlist spec_base_netlist(const SpecFile& file);

/// Build the Session a spec file describes. FIFO specs stay lazy (no gate
/// level is built until a campaign needs it); netlist specs import the file
/// via Session::from_verilog — protected when the design has flip-flops,
/// bare (fault-coverage only) when it is purely combinational. The spec's
/// campaign.threads becomes the session's worker count.
Session make_session(const SpecFile& file);

/// Parse a spec from a stream / string / file. Errors (unknown keys,
/// malformed values) are thrown as retscan::Error naming the line.
SpecFile parse_spec(std::istream& in);
SpecFile parse_spec_text(const std::string& text);
SpecFile load_spec_file(const std::string& path);

/// The strict non-negative integer parse the spec format (and the CLI's
/// override flags) use: plain decimal digits, fully consumed. Negatives,
/// trailing junk and overflow return nullopt — never a wrapped value.
std::optional<std::uint64_t> parse_u64(std::string_view text);

}  // namespace retscan
