#pragma once

#include <cstddef>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"
#include "util/rng.hpp"

namespace retscan {

/// ATPG configuration.
struct AtpgOptions {
  std::size_t random_patterns = 256;   ///< random phase budget
  std::size_t max_backtracks = 500;    ///< PODEM budget per fault
  bool run_podem = true;               ///< deterministic top-up phase
  std::uint64_t seed = 1;
};

/// Full ATPG outcome: the compacted pattern set plus coverage accounting.
struct AtpgResult {
  std::vector<BitVec> patterns;
  std::size_t total_faults = 0;
  std::size_t detected_random = 0;
  std::size_t detected_podem = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;

  std::size_t detected() const { return detected_random + detected_podem; }
  /// Coverage over testable faults (untestable excluded), the number a
  /// test engineer signs off on.
  double coverage() const {
    const std::size_t testable = total_faults - untestable;
    return testable == 0 ? 1.0
                         : static_cast<double>(detected()) / static_cast<double>(testable);
  }
  /// Raw fault efficiency including untestable as resolved.
  double efficiency() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected() + untestable) /
                     static_cast<double>(total_faults);
  }
};

/// Two-phase ATPG over the combinational frame of a (scan) design:
/// 1. Random phase: all `random_patterns` are drawn, then graded once by
///    fault_simulate with fault dropping (on `pool`, else on a 1-thread
///    pool); only patterns that are some fault's first detection are kept,
///    in draw order (reverse compaction).
/// 2. Deterministic phase: PODEM on each remaining fault, committed in
///    fault order by the calling thread. Implication is incremental over
///    the compiled stream (only a changed input's fanout re-settles) and
///    the D-frontier is a bitset kept by the same worklist; the decision
///    order is that of a full re-simulation per decision. With a pool of
///    more than one thread, short pool tasks run Podem::search for the
///    targets up to 4 × pool size ahead of the commit position, each on a
///    Podem from a free list, skipping targets already dropped. The
///    committer takes each target in order: a dropped one is skipped (its
///    speculative search discarded), an unclaimed one it searches itself,
///    a claimed one it waits for. It then commits as the serial loop does:
///    untestable faults leave the testable denominator, aborted ones
///    (backtrack budget exceeded) stay in it undetected, and a success's
///    cube is X-filled from the one seeded Rng and fault-simulated to drop
///    collateral detections. A search that threw is rethrown when its
///    target is committed, never if the target was dropped first.
///    Without a pool, with a 1-thread pool, or when called from one of the
///    pool's own workers, nothing runs ahead and the loop is serial.
///
/// The result is a pure function of (frame, faults, options) at any pool
/// size: the same seed yields the same pattern set, because a search draws
/// no random numbers and fills are drawn only at commit, in fault order.
/// A `cancel` token reaches phase 1's grading shard loop and is polled once
/// per committed target in phase 2; once it fires, the result holds what
/// was generated so far.
AtpgResult run_atpg(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                    const AtpgOptions& options, ThreadPool* pool = nullptr,
                    const CancelToken* cancel = nullptr);

}  // namespace retscan
