#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "core/protected_design.hpp"
#include "parallel/shard_loop.hpp"
#include "scan/scan_insert.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "util/bitvec.hpp"

namespace retscan {

/// Apply a combinational-frame test pattern set to a live simulated design
/// through its scan chains — the procedure a tester executes — and check
/// each response against the good machine. This is how the library proves
/// the Section III claim: the monitoring chain configuration, concatenated
/// per Fig. 5(b), delivers exactly the same manufacturing test.
///
/// Session::run_scan_test (retscan/session.hpp) and scan-test campaigns
/// route onto the two test-mode deliveries below; the full-width overloads
/// serve plain scanned netlists, which a Session never wraps.

/// Result of applying a pattern set through scan.
struct ScanTestResult {
  std::size_t patterns_applied = 0;
  std::size_t mismatches = 0;  ///< responses differing from the good machine
  /// How far the delivery's shard loop got.
  parallel::ShardTally shards;
  bool all_passed() const { return mismatches == 0; }
  ScanTestResult& operator+=(const ScanTestResult& other) {
    patterns_applied += other.patterns_applied;
    mismatches += other.mismatches;
    return *this;
  }
};

/// Apply patterns to a plain scanned design through its per-chain si/so
/// ports (full-width scan access).
ScanTestResult apply_scan_test(Simulator& sim, const ScanChains& chains,
                               const CombinationalFrame& frame,
                               const std::vector<BitVec>& patterns);

/// 64-way parallel-pattern variant: each PackedSim lane shifts, captures and
/// checks a different pattern, so a whole 64-pattern batch costs one scan
/// load plus one capture cycle. This is the coverage-run workhorse.
ScanTestResult apply_scan_test(PackedSim& sim, const ScanChains& chains,
                               const CombinationalFrame& frame,
                               const std::vector<BitVec>& patterns);

/// Apply patterns to a ProtectedDesign through the narrow manufacturing
/// test ports tsi/tso with test_mode asserted, exercising the Fig. 5(b)
/// concatenation muxes. Shift depth is (W/T) * l per load/unload.
ScanTestResult apply_test_mode_scan_test(RetentionSession& session,
                                         const ProtectedDesign& design,
                                         const CombinationalFrame& frame,
                                         std::span<const BitVec> patterns);

/// Test-mode delivery shard: 0 → 256 patterns, else whole 64-lane batches.
std::size_t test_mode_shard_size(std::size_t shard_size);

/// 64-lane test-mode delivery: one lane per pattern through the same
/// tsi/tso concatenation. The pattern set is cut into shards of
/// test_mode_shard_size(shard_size) patterns on the shard loop, which
/// `controls` reach (cancel, progress). Every shard
/// drives its own PackedSim over the design (scan loading fully overwrites
/// the state each batch, so shards are independent and the merged result
/// is identical at any thread count; a 1-thread pool is the serial path).
ScanTestResult apply_test_mode_scan_test_packed(const ProtectedDesign& design,
                                                const CombinationalFrame& frame,
                                                const std::vector<BitVec>& patterns,
                                                ThreadPool& pool,
                                                std::size_t shard_size = 0,
                                                const parallel::RunControls& controls = {});

}  // namespace retscan
