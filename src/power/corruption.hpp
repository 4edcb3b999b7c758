#pragma once

#include <cstddef>
#include <vector>

#include "inject/injector.hpp"
#include "power/rush_current.hpp"
#include "util/rng.hpp"

namespace retscan {

/// Parameters translating a supply-rail disturbance into retention-latch
/// upsets. A high-Vt balloon latch flips when the transient noise on its
/// rail exceeds its static noise margin; with process spread the per-latch
/// upset probability is the Gaussian tail beyond the margin, scaled by a
/// vulnerability factor (only latches whose internal node is being refreshed
/// during the transient window are exposed).
struct CorruptionParameters {
  double noise_margin_volts = 0.35;
  double margin_sigma_volts = 0.08;
  /// Fraction of latches electrically exposed during the transient.
  double vulnerability = 0.01;
  /// Spatial clustering: upsets concentrate around the point of worst IR
  /// drop. Radius of the cluster window (in chain/position units).
  std::size_t cluster_spread = 2;
  /// Probability that an upset joins the cluster rather than landing
  /// uniformly (the paper observed multiple errors "closely clustered").
  double cluster_fraction = 0.9;

  bool operator==(const CorruptionParameters&) const = default;
};

/// Samples which retention latches flip at wake-up, given the electrical
/// rush-current model. This is the substitute for silicon: the paper
/// injected errors with LFSRs precisely because the physical corruption is
/// stochastic; we generate the same shapes (rare single upsets at modest
/// droop, clustered multi-bit bursts at severe droop).
class CorruptionModel {
 public:
  CorruptionModel(const CorruptionParameters& params, const RushCurrentModel& rush);

  const CorruptionParameters& params() const { return params_; }

  /// Per-latch upset probability for the configured droop.
  double upset_probability() const { return upset_probability_; }

  /// Expected number of upsets in a fabric of `flop_count` latches.
  double expected_upsets(std::size_t flop_count) const;

  /// Sample upset locations for a chains x length fabric. The count is
  /// Binomial(N, p); locations are clustered per `cluster_fraction`.
  std::vector<ErrorLocation> sample(std::size_t chain_count, std::size_t chain_length,
                                    Rng& rng) const;

 private:
  CorruptionParameters params_;
  double upset_probability_;
};

}  // namespace retscan
