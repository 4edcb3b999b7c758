#pragma once

#include <cstddef>

namespace retscan {

/// Electrical parameters of a power-gated domain's wake-up path: the
/// header-switch resistance, the package/rail inductance and the domain's
/// internal (discharged) capacitance. Defaults are representative of a
/// 120 nm-class block of ~1k flops: tens of milliohms of rail resistance
/// seen through the package, nanohenry-scale inductance, nanofarad-scale
/// decap+gate capacitance.
struct RushParameters {
  double vdd_volts = 1.2;
  double resistance_ohm = 0.5;     ///< effective series R of switches + rail
  double inductance_nh = 2.0;      ///< rail + package inductance
  double capacitance_nf = 1.5;     ///< domain capacitance to charge at wake
  /// Number of stages the header switches are turned on in. 1 = all at
  /// once (worst rush); larger values model the staggered/daisy-chained
  /// activation of refs [7, 8], which divides the current peak.
  std::size_t stagger_stages = 1;

  bool operator==(const RushParameters&) const = default;
};

/// Step response of the series RLC wake-up circuit (the model the paper
/// cites from Kim et al. [7]). Charging the discharged domain capacitance
/// through the switch resistance and rail inductance produces a current
/// surge; the di/dt across the rail inductance appears as a supply droop on
/// the always-on rail that feeds the retention latches.
class RushCurrentModel {
 public:
  explicit RushCurrentModel(const RushParameters& params);

  const RushParameters& params() const { return params_; }

  /// Damping ratio of the RLC loop.
  double damping_ratio() const { return zeta_; }
  bool underdamped() const { return zeta_ < 1.0; }

  /// Domain supply voltage at time t (ns) after switch turn-on.
  double domain_voltage(double t_ns) const;
  /// Inrush current (A) at time t (ns).
  double inrush_current(double t_ns) const;
  /// Voltage disturbance (V) seen on the always-on rail at time t (ns):
  /// the inrush current through the shared package/grid impedance (the
  /// ground-bounce model of ref [7]).
  double rail_disturbance(double t_ns) const;

  /// Peak inrush current (A) over the transient.
  double peak_current() const;
  /// Peak magnitude of the rail disturbance (V). Divided across stagger
  /// stages: S sequential partial turn-ons each charge 1/S of the
  /// capacitance, scaling the peak by ~1/S (refs [7, 8]).
  double peak_droop() const;

  /// Time (ns) for the domain voltage to stay within `tolerance` of Vdd —
  /// the wake-up settling time the controller must wait before restore.
  double settle_time_ns(double tolerance = 0.05) const;

 private:
  double raw_rail_disturbance(double t_ns) const;

  RushParameters params_;
  double omega0_;  // rad/s
  double zeta_;
};

}  // namespace retscan
