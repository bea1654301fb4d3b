// Golden replay of a small heterogeneous serving fleet. The hash covers
// the full request trace, the SLO summary and every per-host report, so
// any change to the simulated behaviour of the cluster path — the host
// and guest schedulers, cgroups, devices, the serving sources, the
// front end — fails here, not only a change in its speed. The fleet
// cycles Container-vanilla, VM-pinned and VMCN-vanilla hosts so every
// executor a request task can run under is on the path.
//
// The goldens were captured before per-request task reclamation
// landed; they must not be regenerated to make a change pass. A
// deliberate change to simulated behaviour re-records them and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "cluster/fleet.hpp"

namespace pinsim::cluster {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void i64(std::int64_t value) { bytes(&value, sizeof value); }
  void f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void str(const std::string& value) {
    i64(static_cast<std::int64_t>(value.size()));
    bytes(value.data(), value.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

FleetConfig golden_fleet(workload::AppClass app) {
  const virt::InstanceType& xlarge = virt::instance_by_name("xLarge");
  FleetConfig config;
  config.hosts = 6;
  config.app = app;
  config.host_specs = {
      {virt::PlatformKind::Container, virt::CpuMode::Vanilla, xlarge},
      {virt::PlatformKind::Vm, virt::CpuMode::Pinned, xlarge},
      {virt::PlatformKind::VmContainer, virt::CpuMode::Vanilla, xlarge},
  };
  config.balancer = BalancerPolicy::LeastOutstanding;
  config.arrivals.rate_per_second = 60.0;
  config.traffic_seconds = 2.0;
  config.drain_seconds = 60.0;
  config.cassandra.server_threads = 4;
  return config;
}

std::uint64_t hash_result(const ClusterResult& result) {
  Fnv1a hash;
  hash.i64(static_cast<std::int64_t>(result.trace.size()));
  for (const RequestRecord& record : result.trace) {
    hash.i64(record.arrival);
    hash.i64(record.host);
    hash.i64(record.latency);
  }
  hash.i64(result.dispatched);
  hash.i64(result.completed);
  const SloSummary& slo = result.slo;
  hash.i64(slo.total);
  hash.i64(slo.violations);
  for (const double value :
       {slo.violation_fraction, slo.p50_seconds, slo.p99_seconds,
        slo.p999_seconds, slo.mean_seconds, slo.max_seconds}) {
    hash.f64(value);
  }
  hash.i64(static_cast<std::int64_t>(result.hosts.size()));
  for (const FleetHostReport& host : result.hosts) {
    hash.str(host.spec.label() + "/" + host.spec.instance.name);
    hash.f64(host.chr);
    hash.i64(host.chr_in_range ? 1 : 0);
    hash.i64(host.dispatched);
    hash.i64(host.served);
  }
  hash.i64(result.scale_ups);
  hash.i64(result.scale_downs);
  hash.i64(result.peak_active);
  hash.i64(result.final_active);
  return hash.value();
}

constexpr std::uint64_t kWordPressGolden = 1138996609494054794ull;
constexpr std::uint64_t kCassandraGolden = 12248704918453817960ull;

TEST(ClusterGoldenTest, WordPressFleetMatchesGolden) {
  const ClusterResult result =
      run_cluster(golden_fleet(workload::AppClass::IoWeb));
  ASSERT_GT(result.dispatched, 100);
  EXPECT_EQ(result.completed, result.dispatched);
  EXPECT_EQ(hash_result(result), kWordPressGolden);
}

TEST(ClusterGoldenTest, CassandraFleetMatchesGolden) {
  const ClusterResult result =
      run_cluster(golden_fleet(workload::AppClass::IoNoSql));
  ASSERT_GT(result.dispatched, 100);
  EXPECT_EQ(result.completed, result.dispatched);
  EXPECT_EQ(hash_result(result), kCassandraGolden);
}

}  // namespace
}  // namespace pinsim::cluster
