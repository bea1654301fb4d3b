// The cluster serving layer: N simulated hosts behind one front end.
//
// A Fleet instantiates `hosts` full virt::Hosts on one shared
// sim::Engine (host h seeded like repetition h of a solo experiment),
// deploys one workload::RequestSource per host, and drives open-loop
// traffic from a front end on the same engine:
//
//   Arrivals ----> LoadBalancer ----> host h's RequestSource
//      |  pick()+dispatch   \--- schedule_detached(dispatch_latency)
//      |                          inject() ... request executes ...
//      |              completion: schedule_detached(dispatch_latency)
//      v
//   Autoscaler tick: watermark decisions -> provisioning timers ->
//   activate/deactivate instances in the balancer
//
// The pinning controller (PinningPolicy::ChrAdvisor) turns the paper's
// post-hoc CHR table into placement policy: every host's container is
// sized by core::recommend_instance for the app class and pinned.
//
// Determinism contract (tests/cluster/fleet_test.cpp,
// fleet_golden_test.cpp): a fixed config + seed yields a byte-identical
// request trace and ClusterResult summary on every run. Every host and
// the front end share one engine, so the event order is the engine's
// (when, seq) order and the run is serial by construction. The SLO
// summary is folded from the trace in request-id order after the run,
// never accumulated in completion order. Parallelism lives one level
// up: independent fleets run on separate worker threads, each with its
// own engine (scenario_cluster --jobs).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/arrivals.hpp"
#include "cluster/autoscaler.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/slo.hpp"
#include "hw/cost_model.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"
#include "virt/factory.hpp"
#include "virt/guest.hpp"
#include "workload/cassandra.hpp"
#include "workload/profiles.hpp"
#include "workload/wordpress.hpp"

namespace pinsim::cluster {

/// How the fleet sizes and pins its per-host instances.
enum class PinningPolicy {
  /// Run FleetConfig::spec / host_specs exactly as given.
  AsConfigured,
  /// Size every host by core::recommend_instance (smallest instance in
  /// the app class's recommended CHR band, pinned); fall back to the
  /// largest catalog instance that fits when no size lands in the band.
  ChrAdvisor,
};

const char* to_string(PinningPolicy policy);

struct FleetConfig {
  int hosts = 4;
  /// Serving application (IoWeb -> WordPress, IoNoSql -> Cassandra).
  workload::AppClass app = workload::AppClass::IoWeb;
  /// Platform every host runs, unless host_specs or the pinning policy
  /// overrides it.
  virt::PlatformSpec spec{virt::PlatformKind::Container,
                          virt::CpuMode::Vanilla,
                          virt::instance_by_name("xLarge")};
  /// Optional heterogeneous fleet: host h runs host_specs[h % size()].
  std::vector<virt::PlatformSpec> host_specs;
  PinningPolicy pinning = PinningPolicy::AsConfigured;
  hw::Topology full_host = hw::Topology::small_host_16();
  hw::CostModel costs;
  std::uint64_t base_seed = 42;

  ArrivalConfig arrivals;
  /// Arrivals are generated inside [0, traffic_seconds); the run then
  /// drains until every dispatched request completed (checked against
  /// traffic_seconds + drain_seconds).
  double traffic_seconds = 30.0;
  double drain_seconds = 120.0;

  BalancerPolicy balancer = BalancerPolicy::LeastOutstanding;

  bool autoscale = false;
  AutoscalerConfig autoscaler;
  /// Active instances at t = 0; 0 means "all hosts" without
  /// autoscaling and autoscaler.min_instances with it.
  int initial_instances = 0;

  SloConfig slo;

  /// Simulated front-end <-> host network latency, each way. Must be
  /// > 0 (checked).
  SimDuration dispatch_latency = usec(200);

  /// Service-recipe tuning for the serving sources (batch-only fields
  /// are ignored; see workload/request_source.hpp).
  workload::WordPressConfig wordpress;
  workload::CassandraConfig cassandra;
};

/// One request as the front end saw it. trace[id] is written at
/// dispatch (arrival, host) and at the completion notification
/// (latency); id order is dispatch order.
struct RequestRecord {
  SimTime arrival = 0;
  int host = -1;
  /// Front-end round trip: completion notification minus arrival
  /// (network legs included); -1 until the request completes.
  SimDuration latency = -1;
};

struct FleetHostReport {
  virt::PlatformSpec spec;
  double chr = 0.0;
  bool chr_in_range = false;
  std::int64_t dispatched = 0;
  std::int64_t served = 0;
};

/// Event-loop post counters in the shape perfbench reads them. The
/// fleet runs on one engine, so there are no rounds and no cross-engine
/// posts, and every dispatch and completion leg is a local post.
/// perfbench/workloads.cpp is the only reader; the benchmark change
/// that drops the sim.rounds / sim.cross_posts / sim.local_posts
/// counters (ROADMAP item 6) removes this struct.
struct FleetPostStats {
  std::int64_t rounds = 0;
  std::int64_t cross_posts = 0;
  std::int64_t local_posts = 0;
};

struct ClusterResult {
  std::vector<RequestRecord> trace;
  std::int64_t dispatched = 0;
  std::int64_t completed = 0;
  SloSummary slo;
  std::vector<FleetHostReport> hosts;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  int peak_active = 0;
  int final_active = 0;
  FleetPostStats shard_stats;
  sim::EngineStats engine_stats;
  /// Every host kernel's counters, folded in host order.
  os::KernelStats kernel_stats;
  /// Every guest kernel's counters (VM and VMCN hosts), folded in host
  /// order.
  virt::GuestStats guest_stats;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  const FleetConfig& config() const { return config_; }

  /// Per-host platform specs after host_specs cycling and the pinning
  /// policy are applied.
  std::vector<virt::PlatformSpec> resolved_specs() const;

  /// Build the fleet, run the traffic, drain, and summarize.
  ClusterResult run();

 private:
  int initial_active() const;

  FleetConfig config_;
};

/// Convenience one-shot wrapper.
ClusterResult run_cluster(const FleetConfig& config);

}  // namespace pinsim::cluster
