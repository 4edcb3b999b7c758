#pragma once

/// retscan v2 public surface — manufacturing-test layer.
///
/// Stuck-at fault enumeration/collapsing, the combinational scan frame with
/// its incremental (fanout-cone) fault simulator, two-phase ATPG
/// (random + PODEM), pattern I/O, and the scan-delivery checkers.
///
/// The `apply_*scan_test*` functions declared by atpg/scan_test.hpp are the
/// delivery kernels: Session::run_scan_test (retscan/session.hpp) picks
/// between the scalar test-mode tester and the pooled 64-lane delivery from
/// one options struct; the full-width overloads serve plain scanned
/// netlists, which a Session never wraps.

#include "atpg/atpg.hpp"       // AtpgOptions, AtpgResult, run_atpg
#include "atpg/fault.hpp"      // Fault, enumerate_faults, collapse_faults
#include "atpg/fault_sim.hpp"  // CombinationalFrame, fault_simulate
#include "atpg/pattern_io.hpp" // pattern save/load
#include "atpg/podem.hpp"      // Podem, PodemResult, PodemSearch
#include "atpg/scan_test.hpp"  // ScanTestResult + the apply_* delivery kernels
