// Cluster serving layer: open-loop traffic is served to completion, and
// a fixed (config, seed) yields a byte-identical request trace and
// summary on every run — every host and the front end share one engine,
// so these comparisons are exact equality, not tolerance checks.
#include "cluster/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/chr_advisor.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace pinsim::cluster {
namespace {

FleetConfig small_fleet(int hosts) {
  FleetConfig config;
  config.hosts = hosts;
  config.arrivals.rate_per_second = 40.0;
  config.traffic_seconds = 2.0;
  config.drain_seconds = 60.0;
  return config;
}

void expect_identical(const ClusterResult& a, const ClusterResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].arrival, b.trace[i].arrival) << "request " << i;
    EXPECT_EQ(a.trace[i].host, b.trace[i].host) << "request " << i;
    EXPECT_EQ(a.trace[i].latency, b.trace[i].latency) << "request " << i;
  }
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo.total, b.slo.total);
  EXPECT_EQ(a.slo.violations, b.slo.violations);
  EXPECT_EQ(a.slo.p50_seconds, b.slo.p50_seconds);
  EXPECT_EQ(a.slo.p99_seconds, b.slo.p99_seconds);
  EXPECT_EQ(a.slo.p999_seconds, b.slo.p999_seconds);
  EXPECT_EQ(a.slo.mean_seconds, b.slo.mean_seconds);
  EXPECT_EQ(a.slo.max_seconds, b.slo.max_seconds);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t h = 0; h < a.hosts.size(); ++h) {
    EXPECT_EQ(a.hosts[h].dispatched, b.hosts[h].dispatched) << "host " << h;
    EXPECT_EQ(a.hosts[h].served, b.hosts[h].served) << "host " << h;
  }
  EXPECT_EQ(a.scale_ups, b.scale_ups);
  EXPECT_EQ(a.scale_downs, b.scale_downs);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.final_active, b.final_active);
}

TEST(ClusterFleetTest, ServesOpenLoopTrafficToCompletion) {
  const ClusterResult result = run_cluster(small_fleet(4));
  EXPECT_GT(result.dispatched, 20);
  EXPECT_EQ(result.completed, result.dispatched);
  EXPECT_EQ(result.slo.total, result.dispatched);
  EXPECT_GT(result.slo.p50_seconds, 0.0);
  EXPECT_GE(result.slo.p99_seconds, result.slo.p50_seconds);
  std::int64_t dispatched = 0;
  std::int64_t served = 0;
  for (const FleetHostReport& host : result.hosts) {
    dispatched += host.dispatched;
    served += host.served;
  }
  EXPECT_EQ(dispatched, result.dispatched);
  EXPECT_EQ(served, result.completed);
}

TEST(ClusterFleetTest, TraceIsIdenticalAcrossRepeatedRuns) {
  expect_identical(run_cluster(small_fleet(4)), run_cluster(small_fleet(4)));
}

TEST(ClusterFleetTest, CassandraFleetServesToCompletion) {
  FleetConfig config = small_fleet(3);
  config.app = workload::AppClass::IoNoSql;
  config.cassandra.server_threads = 4;
  const ClusterResult a = run_cluster(config);
  EXPECT_GT(a.dispatched, 20);
  EXPECT_EQ(a.completed, a.dispatched);
  expect_identical(a, run_cluster(config));
}

TEST(ClusterFleetTest, RoundRobinSpreadsLoadEvenly) {
  FleetConfig config = small_fleet(4);
  config.balancer = BalancerPolicy::RoundRobin;
  const ClusterResult result = run_cluster(config);
  std::int64_t lo = result.dispatched;
  std::int64_t hi = 0;
  for (const FleetHostReport& host : result.hosts) {
    lo = std::min(lo, host.dispatched);
    hi = std::max(hi, host.dispatched);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(ClusterFleetTest, ChrAdvisorPinsEveryHostIntoTheBand) {
  FleetConfig config = small_fleet(2);
  config.pinning = PinningPolicy::ChrAdvisor;
  const Fleet fleet(config);
  const core::ChrRange band = core::paper_chr_range(config.app);
  for (const virt::PlatformSpec& spec : fleet.resolved_specs()) {
    EXPECT_EQ(spec.mode, virt::CpuMode::Pinned);
    EXPECT_TRUE(band.contains(core::chr_of(spec.instance, config.full_host)));
  }
  const ClusterResult result = run_cluster(config);
  for (const FleetHostReport& host : result.hosts) {
    EXPECT_TRUE(host.chr_in_range);
  }
}

TEST(ClusterFleetTest, AutoscalerGrowsTheFleetUnderBurst) {
  FleetConfig config = small_fleet(4);
  config.arrivals.kind = ArrivalKind::Burst;
  config.arrivals.rate_per_second = 30.0;
  config.arrivals.burst_multiplier = 10.0;
  config.arrivals.burst_seconds = 2.0;
  config.arrivals.quiet_seconds = 10.0;
  config.traffic_seconds = 4.0;
  config.autoscale = true;
  config.autoscaler.min_instances = 1;
  config.autoscaler.provisioning_delay = msec(500);
  config.autoscaler.cooldown = msec(500);
  const ClusterResult result = run_cluster(config);
  EXPECT_GT(result.scale_ups, 0);
  EXPECT_GT(result.peak_active, 1);
  EXPECT_EQ(result.completed, result.dispatched);
  expect_identical(result, run_cluster(config));
}

TEST(ClusterFleetTest, FoldsKernelCountersAcrossHosts) {
  FleetConfig config = small_fleet(2);
  const virt::InstanceType& xlarge = virt::instance_by_name("xLarge");
  config.host_specs = {
      {virt::PlatformKind::Container, virt::CpuMode::Vanilla, xlarge},
      {virt::PlatformKind::Vm, virt::CpuMode::Pinned, xlarge},
  };
  const ClusterResult web = run_cluster(config);
  EXPECT_GT(web.kernel_stats.context_switches, 0);
  EXPECT_GT(web.guest_stats.dispatches, 0);
  // Per-request WordPress tasks are detached: the container host's
  // kernel and the VM's guest kernel both reclaim them.
  EXPECT_GT(web.kernel_stats.tasks_reaped, 0);
  EXPECT_GT(web.guest_stats.tasks_reaped, 0);
  EXPECT_LT(web.kernel_stats.tasks_reaped + web.guest_stats.tasks_reaped,
            web.completed);

  // Cassandra's resident server threads are joinable: nothing is freed.
  config.app = workload::AppClass::IoNoSql;
  config.cassandra.server_threads = 2;
  const ClusterResult cassandra = run_cluster(config);
  EXPECT_GT(cassandra.kernel_stats.wakeups, 0);
  EXPECT_EQ(cassandra.kernel_stats.tasks_reaped, 0);
  EXPECT_EQ(cassandra.guest_stats.tasks_reaped, 0);
}

TEST(ClusterFleetTest, RejectsNonPositiveDispatchLatency) {
  // Checked at construction: each leg is a simulated network hop.
  for (const SimDuration latency : {SimDuration{0}, -usec(200)}) {
    FleetConfig config = small_fleet(2);
    config.dispatch_latency = latency;
    EXPECT_THROW(Fleet{config}, InvariantViolation) << "latency " << latency;
  }
}

TEST(ClusterFleetTest, RejectsNonServingAppClasses) {
  FleetConfig config = small_fleet(2);
  config.app = workload::AppClass::CpuBound;
  EXPECT_THROW(Fleet{config}, InvariantViolation);
}

}  // namespace
}  // namespace pinsim::cluster
