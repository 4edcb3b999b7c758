#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "core/protected_design.hpp"
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

/// Patterns per shard of the pooled test-mode delivery when none is asked.
inline constexpr std::size_t kTestModeShard = 256;

/// Shard geometry of the pooled test-mode delivery: `requested` patterns
/// per shard (0 → kTestModeShard), floored to whole 64-lane batches
/// (minimum one batch). The pooled delivery and CampaignResult::shard_count
/// both derive their shard plan from this one function.
inline std::size_t test_mode_patterns_per_shard(std::size_t requested) {
  const std::size_t lanes = PackedSim::lane_count();
  if (requested == 0) {
    requested = kTestModeShard;
  }
  return std::max<std::size_t>(lanes, requested / lanes * lanes);
}

/// Result of applying a pattern set through scan.
struct ScanTestResult {
  std::size_t patterns_applied = 0;
  std::size_t mismatches = 0;  ///< responses differing from the good machine
  bool all_passed() const { return mismatches == 0; }
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
                                         const std::vector<BitVec>& patterns);

/// 64-lane test-mode delivery: one lane per pattern through the same
/// tsi/tso concatenation. The pattern set is sharded into
/// test_mode_patterns_per_shard(shard_size) chunks across the pool and every
/// shard drives its own PackedSim over the design (scan loading fully
/// overwrites the state each batch, so shards are independent and the
/// merged result is identical at any thread count; a 1-thread pool is the
/// serial path).
ScanTestResult apply_test_mode_scan_test_packed(const ProtectedDesign& design,
                                                const CombinationalFrame& frame,
                                                const std::vector<BitVec>& patterns,
                                                ThreadPool& pool,
                                                std::size_t shard_size = 0);

}  // namespace retscan
