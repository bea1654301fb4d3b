// Micro-benchmarks for the cluster serving layer's hot paths.
//
// The front end runs one Arrivals::next() and one LoadBalancer::pick()
// per request plus an SloTracker::record() per completion, so at fleet
// request rates these are the per-event costs that bound scenario
// throughput; BM_ClusterFleet times the full dispatch/serve/notify loop
// end to end on a small fleet.
#include <benchmark/benchmark.h>

#include "cluster/arrivals.hpp"
#include "cluster/fleet.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/slo.hpp"
#include "util/rng.hpp"

namespace {

using namespace pinsim;

cluster::ArrivalConfig arrival_config(cluster::ArrivalKind kind) {
  cluster::ArrivalConfig config;
  config.kind = kind;
  config.rate_per_second = 1000.0;
  config.burst_seconds = 0.5;
  config.quiet_seconds = 2.0;
  config.diurnal_period_seconds = 60.0;
  return config;
}

void BM_ArrivalsPoisson(benchmark::State& state) {
  cluster::Arrivals arrivals(arrival_config(cluster::ArrivalKind::Poisson),
                             Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(arrivals.next());
  }
}
BENCHMARK(BM_ArrivalsPoisson);

void BM_ArrivalsBurst(benchmark::State& state) {
  cluster::Arrivals arrivals(arrival_config(cluster::ArrivalKind::Burst),
                             Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(arrivals.next());
  }
}
BENCHMARK(BM_ArrivalsBurst);

void BM_ArrivalsDiurnal(benchmark::State& state) {
  cluster::Arrivals arrivals(arrival_config(cluster::ArrivalKind::Diurnal),
                             Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(arrivals.next());
  }
}
BENCHMARK(BM_ArrivalsDiurnal);

/// pick() + outstanding bookkeeping over `backends` instances, with the
/// count periodically drained so the scan never degenerates.
void balancer_loop(benchmark::State& state, cluster::BalancerPolicy policy) {
  const int backends = static_cast<int>(state.range(0));
  cluster::LoadBalancer lb(policy, backends);
  for (int b = 0; b < backends; b += 3) {
    lb.set_chr_in_range(b, false);
  }
  for (auto _ : state) {
    const int pick = lb.pick();
    lb.add_outstanding(pick, 1);
    if (lb.outstanding(pick) >= 8) lb.add_outstanding(pick, -8);
    benchmark::DoNotOptimize(pick);
  }
}

void BM_BalancerRoundRobin(benchmark::State& state) {
  balancer_loop(state, cluster::BalancerPolicy::RoundRobin);
}
BENCHMARK(BM_BalancerRoundRobin)->Arg(8)->Arg(64);

void BM_BalancerLeastOutstanding(benchmark::State& state) {
  balancer_loop(state, cluster::BalancerPolicy::LeastOutstanding);
}
BENCHMARK(BM_BalancerLeastOutstanding)->Arg(8)->Arg(64);

void BM_BalancerChrAware(benchmark::State& state) {
  balancer_loop(state, cluster::BalancerPolicy::ChrAware);
}
BENCHMARK(BM_BalancerChrAware)->Arg(8)->Arg(64);

void BM_SloRecord(benchmark::State& state) {
  cluster::SloTracker tracker{cluster::SloConfig{}};
  Rng rng(3);
  double latency = 0.0;
  for (auto _ : state) {
    latency = 0.2 + 0.6 * rng.next_double();
    tracker.record(latency);
  }
  benchmark::DoNotOptimize(tracker.summary());
}
BENCHMARK(BM_SloRecord);

/// End-to-end: a small WordPress fleet serving one second of open-loop
/// traffic through dispatch, execution, and completion notification.
void BM_ClusterFleet(benchmark::State& state) {
  cluster::FleetConfig config;
  config.hosts = 4;
  config.arrivals.rate_per_second = 100.0;
  config.traffic_seconds = 1.0;
  config.drain_seconds = 60.0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    const cluster::ClusterResult result = cluster::run_cluster(config);
    requests += result.completed;
    benchmark::DoNotOptimize(result.slo.p99_seconds);
  }
  state.counters["requests"] =
      benchmark::Counter(static_cast<double>(requests),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterFleet)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
