// Fault-injection campaign across electrical operating points: how often
// does a wake-up corrupt state, and what does monitoring recover? Sweeps
// the rush-current severity (switch resistance) under the physical
// corruption model, as one declarative CampaignSpec per operating point.
//
//   ./build/example_fault_injection_campaign

#include <iomanip>
#include <iostream>

#include "retscan/retscan.hpp"

using namespace retscan;

int main() {
  const std::size_t sequences = 20000;
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 80;
  Session session(FifoSpec{32, 32}, protection);
  // Injection campaigns shard across the session's thread pool
  // (RETSCAN_THREADS knob); results are bit-identical at any thread count.
  std::cout << "Rush-current severity sweep (32x32 FIFO, 80 chains, Hamming(7,4)+CRC, "
            << session.threads() << " threads)\n";
  std::cout << "# R_switch  droop_V  p_upset      corrupted-wakes  corrected  flagged\n"
            << std::fixed;

  for (const double r : {2.0, 0.8, 0.4, 0.2, 0.1, 0.05}) {
    CampaignSpec spec;
    spec.kind = CampaignKind::Injection;
    spec.mode = InjectionMode::RushModel;
    spec.rush.resistance_ohm = r;
    spec.corruption.vulnerability = 0.02;
    spec.seed = static_cast<std::uint64_t>(r * 1000) + 1;
    spec.sequences = sequences;
    const CampaignResult result = session.run(spec);
    const ValidationStats& stats = result.validation;

    const RushCurrentModel model(spec.rush);
    const CorruptionModel corruption(spec.corruption, model);
    std::cout << std::setprecision(2) << std::setw(9) << r << std::setprecision(3)
              << std::setw(9) << model.peak_droop() << std::scientific
              << std::setprecision(2) << std::setw(12)
              << corruption.upset_probability() << std::fixed << std::setw(13)
              << stats.sequences_with_errors << " /" << sequences << std::setw(10)
              << stats.corrected << std::setw(9) << stats.flagged_uncorrectable
              << "\n";
    if (!result.passed()) {
      std::cout << "ESCAPE DETECTED — should never happen\n";
      return 1;
    }
  }
  std::cout << "\nEvery corrupted wake-up was either repaired or flagged; no state\n"
               "corruption ever reached active mode unnoticed.\n";
  return 0;
}
