// Instance-count control for the cluster serving layer.
//
// The Autoscaler is a pure decision function: each evaluation tick it
// sees the front end's view (active instances, instances still
// provisioning, outstanding requests) and answers with an instance
// delta. Everything stateful about applying the decision — which host
// to activate, the provisioning timer, draining a deactivated host —
// lives in cluster::Fleet; keeping the policy side effect free is what
// makes it unit-testable without an engine.
//
// The policy is classic watermark control: scale up when outstanding
// requests per available instance exceed the high watermark, down when
// they fall below the low one, with a cooldown between decisions so one
// burst does not thrash the fleet. Scale-ups take effect only after the
// configured provisioning delay (arXiv:2602.15214 decomposes container
// startup latency; the delay is the price of every scale-out decision),
// which is why provisioning instances count toward capacity here — the
// controller must not re-order more capacity it already paid for.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace pinsim::cluster {

struct AutoscalerConfig {
  int min_instances = 1;
  int max_instances = 1 << 16;  // callers clamp to the fleet size
  /// Outstanding requests per available (active + provisioning)
  /// instance above which the fleet grows / below which it shrinks.
  double high_watermark = 8.0;
  double low_watermark = 2.0;
  SimDuration evaluation_period = msec(500);
  /// Container cold-start: a scale-up becomes routable this much later.
  SimDuration provisioning_delay = sec(2);
  SimDuration cooldown = sec(5);
  /// Instances added/removed per decision.
  int step = 1;
};

class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerConfig config);

  const AutoscalerConfig& config() const { return config_; }

  /// Instance delta to apply now (positive = provision, negative =
  /// deactivate, 0 = hold).
  int evaluate(SimTime now, int active, int provisioning,
               std::int64_t outstanding);

 private:
  AutoscalerConfig config_;
  bool scaled_before_ = false;
  SimTime last_scale_ = 0;
};

}  // namespace pinsim::cluster
