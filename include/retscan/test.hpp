#pragma once

/// retscan v1 public surface — manufacturing-test layer.
///
/// Stuck-at fault enumeration/collapsing, the combinational scan frame with
/// its incremental (fanout-cone) fault simulator, two-phase ATPG
/// (random + PODEM), pattern I/O, and the scan-delivery checkers.
///
/// The five `apply_*scan_test*` overloads declared by atpg/scan_test.hpp
/// are the *legacy* delivery entry points: new code should route deliveries
/// through Session::run_scan_test (retscan/session.hpp), which picks the
/// backend (scalar oracle / 64-lane packed / packed+pooled) from one
/// options struct. The overloads remain available — and are re-exported as
/// deprecated shims in retscan/legacy.hpp — for migration.

#include "atpg/atpg.hpp"       // AtpgOptions, AtpgResult, run_atpg
#include "atpg/fault.hpp"      // Fault, enumerate_faults, collapse_faults
#include "atpg/fault_sim.hpp"  // CombinationalFrame, fault_simulate
#include "atpg/pattern_io.hpp" // pattern save/load
#include "atpg/podem.hpp"      // Podem, PodemResult
#include "atpg/scan_test.hpp"  // ScanTestResult + legacy apply_* entry points
