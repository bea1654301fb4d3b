// Open-loop arrival processes for the cluster serving layer.
//
// The paper's load generators are closed bursts (JMeter fires 1,000
// requests, cassandra-stress 1,000 ops); a production front end sees an
// open-loop stream whose rate varies on its own schedule. `Arrivals`
// generates such a stream deterministically: each instance owns its Rng,
// so a (config, seed) pair always produces the same arrival-time
// sequence regardless of what else the simulation draws — the property
// the cluster determinism tests pin down.
//
// Three profiles cover the serving scenarios:
//   Poisson  constant-rate memoryless traffic (steady state);
//   Burst    square-wave rate alternating quiet and burst phases
//            (flash crowds, the autoscaler's stress case);
//   Diurnal  sinusoidal day curve, trough at t = 0 (the "10M daily
//            users" shape, compressible to any period).
//
// Non-homogeneous profiles are sampled by Lewis-Shedler thinning against
// the profile's peak rate, so every profile is exact (no per-interval
// discretization) and costs O(1) draws per accepted arrival.
#pragma once

#include "util/rng.hpp"
#include "util/units.hpp"

namespace pinsim::cluster {

enum class ArrivalKind { Poisson, Burst, Diurnal };

const char* to_string(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::Poisson;
  /// Mean rate of the Poisson profile, the quiet-phase rate of the
  /// burst profile, and the daily mean of the diurnal profile.
  double rate_per_second = 100.0;
  /// Burst profile: burst_seconds at rate * burst_multiplier, then
  /// quiet_seconds at rate, repeating (burst phase first).
  double burst_multiplier = 8.0;
  double burst_seconds = 2.0;
  double quiet_seconds = 10.0;
  /// Diurnal profile: rate(t) = rate * (1 - amplitude * cos(2*pi*t /
  /// period)) — trough at t = 0, peak half a period in.
  double diurnal_amplitude = 0.8;
  double diurnal_period_seconds = 86400.0;
};

/// Deterministic per-stream arrival-time generator. `next()` returns
/// absolute arrival instants in non-decreasing order.
class Arrivals {
 public:
  Arrivals(ArrivalConfig config, Rng rng);

  /// The next arrival instant.
  SimTime next();

  /// Instantaneous rate `t_seconds` into the stream.
  double rate_at(double t_seconds) const;

  /// The profile's peak instantaneous rate (the thinning majorant).
  double peak_rate() const;

  const ArrivalConfig& config() const { return config_; }

 private:
  ArrivalConfig config_;
  Rng rng_;
  /// Continuous-time position kept in double seconds so the exponential
  /// gaps compose without nanosecond rounding drift.
  double t_seconds_ = 0.0;
};

}  // namespace pinsim::cluster
