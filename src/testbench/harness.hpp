#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/fifo.hpp"
#include "coding/protectors.hpp"
#include "core/protected_design.hpp"
#include "power/corruption.hpp"
#include "sim/schedule.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace retscan {

/// How the injector perturbs each test sequence (Fig. 7).
enum class InjectionMode {
  None,           ///< control experiments
  SingleRandom,   ///< one LFSR-selected upset per sequence (experiment 1)
  MultipleBurst,  ///< clustered multi-bit burst per sequence (experiment 2)
  RushModel,      ///< upsets sampled from the electrical corruption model
};

/// Configuration of the validation campaign (Fig. 8 testbench).
struct ValidationConfig {
  FifoSpec fifo{32, 32};
  std::size_t chain_count = 80;
  CodeKind kind = CodeKind::HammingPlusCrc;
  unsigned hamming_r = 3;
  InjectionMode mode = InjectionMode::SingleRandom;
  std::size_t burst_size = 4;
  std::size_t burst_spread = 2;
  std::uint64_t seed = 1;
  /// Settle schedule for the structural simulators (resolved against
  /// RETSCAN_SCHEDULE at construction; Auto lets each engine probe its own
  /// activity). Campaign statistics are bit-identical under every mode —
  /// the knob only selects how settles are computed.
  Schedule schedule = Schedule::Auto;
  /// Used only with InjectionMode::RushModel.
  CorruptionParameters corruption{};
  RushParameters rush{};

  bool operator==(const ValidationConfig&) const = default;
};

/// Counter block of Fig. 8: every observable event of the campaign.
struct ValidationStats {
  std::size_t sequences = 0;
  std::size_t errors_injected = 0;
  std::size_t sequences_with_errors = 0;
  std::size_t detected = 0;              ///< monitor raised its error output
  std::size_t corrected = 0;             ///< recheck clean AND state matches FIFO_B
  std::size_t flagged_uncorrectable = 0; ///< monitor escalated (ErrorFlagged)
  std::size_t comparator_mismatches = 0; ///< FIFO_A data != FIFO_B data at readout
  /// Errors that reached the comparator without the monitor noticing —
  /// the reliability escape count. The paper reports zero.
  std::size_t silent_corruptions = 0;

  double detection_rate() const {
    return sequences_with_errors == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(sequences_with_errors);
  }
  double correction_rate() const {
    return sequences_with_errors == 0
               ? 1.0
               : static_cast<double>(corrected) / static_cast<double>(sequences_with_errors);
  }

  /// Shard reduction: counters are pure sums, so merging per-shard stats in
  /// shard order reproduces the single-threaded campaign exactly.
  ValidationStats& operator+=(const ValidationStats& other) {
    sequences += other.sequences;
    errors_injected += other.errors_injected;
    sequences_with_errors += other.sequences_with_errors;
    detected += other.detected;
    corrected += other.corrected;
    flagged_uncorrectable += other.flagged_uncorrectable;
    comparator_mismatches += other.comparator_mismatches;
    silent_corruptions += other.silent_corruptions;
    return *this;
  }

  bool operator==(const ValidationStats&) const = default;
};

/// Behavioral (fast) testbench: the Fig. 8 protocol computed in the
/// syndrome domain. Hamming and CRC-16 (zero initial value) are linear over
/// GF(2), so with error pattern e the data cancels out of every verdict:
/// each word's syndrome, and so its correction, is a function of e alone,
/// the CRC mismatch is CRC₀ of the residual e′ left after correction, and
/// the comparator matches exactly when e′ is empty. A sequence therefore
/// costs O(|e|) lookups into tables built once per testbench (a 16-bit CRC
/// contribution per (chain, position), a Hamming column per chain and a
/// syndrome → data-index map), not an encode/decode of the whole fabric.
/// The RNG still draws (and discards) the chain contents, so every stream
/// stays where the data-carrying implementation left it and the statistics
/// are bit-identical to it (the oracle in tests/behavioral_oracle.hpp).
/// Equivalent in outcome to the structural path (proven by the core test
/// suite's structural-vs-behavioral test).
class FastTestbench {
 public:
  /// Throws retscan::Error unless the chain count divides the flop count
  /// and is a multiple of the Hamming k (for every CodeKind).
  explicit FastTestbench(const ValidationConfig& config);

  const ValidationConfig& config() const { return config_; }
  std::size_t chain_length() const { return chain_length_; }

  /// Run `count` test sequences and accumulate statistics; throws Cancelled
  /// once `cancel` (checked before every sequence) fires.
  ValidationStats run(std::size_t count, const CancelToken* cancel = nullptr);

  /// Rewind to the state of a freshly constructed testbench with the same
  /// shape but `seed`. This is what makes persistent per-thread workspaces
  /// possible: a pooled campaign reseeds a warm testbench per shard instead
  /// of rebuilding it (the syndrome tables are kept), with bit-identical
  /// results (asserted by test_parallel's persistent-workspace case).
  void reseed(std::uint64_t seed);

  /// Behavioral runs have no gate-level settles; always empty. Kept so the
  /// campaign runner drains telemetry uniformly across testbench tiers.
  ScheduleTelemetry take_telemetry() { return ScheduleTelemetry{}; }

 private:
  ValidationConfig config_;
  std::size_t chain_length_;
  Rng rng_;
  std::unique_ptr<ErrorInjector> injector_;
  std::unique_ptr<CorruptionModel> corruption_;  ///< RushModel only
  std::size_t hamming_k_ = 0;
  /// Upsets are keyed position * chain_count + chain: a Hamming word
  /// (group, position) is then the key range [word * k, word * k + k).
  /// crc_column_[key] is CRC₀ of a lone upset at that key.
  std::vector<std::uint16_t> crc_column_;
  /// hamming_column_[chain]: the syndrome a lone upset in that chain raises.
  std::vector<unsigned> hamming_column_;
  /// syndrome_data_[s]: the data index syndrome s corrects, or npos when s
  /// names a parity position.
  std::vector<std::size_t> syndrome_data_;
  std::vector<std::size_t> residual_;  ///< per-sequence scratch: e, then e′
};

/// Structural (cycle-accurate) testbench: FIFO_A is a simulated
/// ProtectedDesign including error injection; FIFO_B is the behavioral
/// golden model; Stimulus writes identical random words to both; the
/// Comparator reads both back after the sleep/wake cycle (the exact 5-stage
/// sequence of Section IV). Slower — use for thousands of sequences.
class StructuralTestbench {
 public:
  explicit StructuralTestbench(const ValidationConfig& config);

  const ProtectedDesign& design() const { return *design_; }

  /// One trial at a time; `cancel` as in FastTestbench::run.
  ValidationStats run(std::size_t count, const CancelToken* cancel = nullptr);

  /// Bit-parallel campaign: batches of 64 corruption trials share one
  /// simulated design. Each batch writes one random stimulus (broadcast to
  /// every lane), then runs the sleep/wake protocol once with 64 independent
  /// upset sets — the comparator and monitor outcomes are read per lane.
  /// Statistically equivalent to run() (same protocol, same injectors) at a
  /// fraction of the simulation cost; this is the paper-scale path.
  ValidationStats run_packed(std::size_t count, const CancelToken* cancel = nullptr);

  /// Rewind to a freshly constructed testbench with the same shape but
  /// `seed`: the simulators return to their power-on state (construction
  /// writes nothing beyond a reset), the protocol FSM restarts, and the
  /// random streams are re-derived. The expensive compiled design and
  /// sessions are kept — this is the persistent-workspace fast path of the
  /// pooled campaign runner.
  void reseed(std::uint64_t seed);

  /// Drain accumulated settle-schedule telemetry from both simulators
  /// (scalar session + packed session when it exists); counters reset.
  ScheduleTelemetry take_telemetry();

 private:
  ValidationConfig config_;
  std::unique_ptr<ProtectedDesign> design_;
  std::unique_ptr<RetentionSession> session_;
  std::unique_ptr<PackedRetentionSession> packed_session_;
  Rng rng_;
  std::unique_ptr<ErrorInjector> injector_;
  std::unique_ptr<CorruptionModel> corruption_;
};

}  // namespace retscan
