#include "cluster/fleet.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "core/chr_advisor.hpp"
#include "util/check.hpp"
#include "virt/platform.hpp"
#include "virt/vm.hpp"
#include "workload/request_source.hpp"

namespace pinsim::cluster {

namespace {

std::unique_ptr<workload::RequestSource> make_source(const FleetConfig& config,
                                                     virt::Platform& platform,
                                                     Rng rng) {
  if (config.app == workload::AppClass::IoWeb) {
    return workload::make_wordpress_source(platform, config.wordpress, rng);
  }
  return workload::make_cassandra_source(platform, config.cassandra, rng);
}

/// Hosts, platforms and serving sources of one fleet, all on the
/// fleet's engine. Sources are declared last so they are destroyed
/// before the platforms they serve.
struct FleetHosts {
  std::vector<std::unique_ptr<virt::Host>> hosts;
  std::vector<std::unique_ptr<virt::Platform>> platforms;
  std::vector<std::unique_ptr<workload::RequestSource>> sources;
};

/// Build host h on `engine` running `specs[h]`, with the experiment
/// runner's per-repetition seed spacing, so host h matches repetition h
/// of a solo run of the same spec. Each host's source is deployed right
/// after its platform is built: construction stays interleaved, so host
/// h's initial kernel events and the source's keep their relative order.
FleetHosts build_fleet_hosts(const FleetConfig& config, sim::Engine& engine,
                             const std::vector<virt::PlatformSpec>& specs) {
  FleetHosts out;
  out.hosts.reserve(specs.size());
  out.platforms.reserve(specs.size());
  out.sources.reserve(specs.size());
  for (std::size_t h = 0; h < specs.size(); ++h) {
    const std::uint64_t seed =
        config.base_seed + 1000003ull * static_cast<std::uint64_t>(h);
    out.hosts.push_back(std::make_unique<virt::Host>(
        engine, virt::host_topology_for(specs[h], config.full_host),
        config.costs, seed));
    out.platforms.push_back(virt::make_platform(*out.hosts.back(), specs[h]));
    out.sources.push_back(make_source(config, *out.platforms.back(),
                                      Rng(seed ^ 0x517cc1b727220a95ull)));
  }
  return out;
}

}  // namespace

const char* to_string(PinningPolicy policy) {
  switch (policy) {
    case PinningPolicy::AsConfigured:
      return "as-configured";
    case PinningPolicy::ChrAdvisor:
      return "chr-advisor";
  }
  return "?";
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  PINSIM_CHECK_MSG(config_.hosts >= 1,
                   "fleet needs >= 1 host (got " << config_.hosts << ")");
  PINSIM_CHECK_MSG(config_.traffic_seconds > 0.0,
                   "traffic window must be positive");
  PINSIM_CHECK_MSG(config_.drain_seconds > 0.0, "drain window must be positive");
  PINSIM_CHECK_MSG(config_.dispatch_latency > 0,
                   "dispatch latency must be positive (got "
                       << config_.dispatch_latency << ")");
  PINSIM_CHECK_MSG(config_.app == workload::AppClass::IoWeb ||
                       config_.app == workload::AppClass::IoNoSql,
                   "the serving layer models the paper's request-serving "
                   "applications (IoWeb -> WordPress, IoNoSql -> Cassandra)");
  PINSIM_CHECK_MSG(
      config_.initial_instances >= 0 &&
          config_.initial_instances <= config_.hosts,
      "initial_instances " << config_.initial_instances << " out of range");
  PINSIM_CHECK_MSG(config_.autoscaler.min_instances <= config_.hosts,
                   "autoscaler floor exceeds the fleet size");
  config_.autoscaler.max_instances =
      std::min(config_.autoscaler.max_instances, config_.hosts);
}

std::vector<virt::PlatformSpec> Fleet::resolved_specs() const {
  std::vector<virt::PlatformSpec> out;
  out.reserve(static_cast<std::size_t>(config_.hosts));
  std::optional<virt::InstanceType> advised;
  if (config_.pinning == PinningPolicy::ChrAdvisor) {
    advised = core::recommend_instance(config_.app, config_.full_host);
    if (!advised) {
      advised = virt::largest_instance_within(config_.full_host.num_cpus());
    }
  }
  for (int h = 0; h < config_.hosts; ++h) {
    virt::PlatformSpec spec =
        config_.host_specs.empty()
            ? config_.spec
            : config_.host_specs[static_cast<std::size_t>(h) %
                                 config_.host_specs.size()];
    if (advised) {
      spec.instance = *advised;
      spec.mode = virt::CpuMode::Pinned;
    }
    out.push_back(std::move(spec));
  }
  return out;
}

int Fleet::initial_active() const {
  if (config_.initial_instances > 0) return config_.initial_instances;
  if (config_.autoscale) {
    return std::min(config_.autoscaler.min_instances, config_.hosts);
  }
  return config_.hosts;
}

ClusterResult Fleet::run() {
  const int n = config_.hosts;
  // One engine carries every host and the front end; it is declared
  // first so it outlives the hosts that borrow it.
  sim::Engine engine;

  const std::vector<virt::PlatformSpec> specs = resolved_specs();
  const FleetHosts built = build_fleet_hosts(config_, engine, specs);

  // Front-end state, touched only from front-end events.
  LoadBalancer balancer(config_.balancer, n);
  const core::ChrRange band = core::paper_chr_range(config_.app);
  std::vector<double> chr(static_cast<std::size_t>(n), 0.0);
  for (int h = 0; h < n; ++h) {
    const std::size_t i = static_cast<std::size_t>(h);
    chr[i] = core::chr_of(specs[i].instance, config_.full_host);
    balancer.set_chr_in_range(h, band.contains(chr[i]));
  }
  const int initial = initial_active();
  for (int h = 0; h < n; ++h) balancer.set_active(h, h < initial);

  ClusterResult out;
  out.peak_active = balancer.active_count();
  std::vector<std::int64_t> dispatched_per_host(static_cast<std::size_t>(n),
                                                0);
  Autoscaler autoscaler(config_.autoscaler);
  std::vector<char> provisioning(static_cast<std::size_t>(n), 0);
  int provisioning_count = 0;

  const SimTime traffic_end = sec_f(config_.traffic_seconds);
  const SimTime horizon =
      sec_f(config_.traffic_seconds + config_.drain_seconds);

  auto dispatch = [&](SimTime now) {
    const int host = balancer.pick();
    PINSIM_CHECK_MSG(host >= 0, "cluster front end found no active instance");
    const int id = static_cast<int>(out.trace.size());
    out.trace.push_back(RequestRecord{now, host, -1});
    ++out.dispatched;
    ++dispatched_per_host[static_cast<std::size_t>(host)];
    balancer.add_outstanding(host, +1);

    workload::RequestSource* source =
        built.sources[static_cast<std::size_t>(host)].get();
    sim::Engine* eng = &engine;
    ClusterResult* result = &out;
    LoadBalancer* lb = &balancer;
    const SimDuration leg = config_.dispatch_latency;
    eng->schedule_detached(leg, [eng, result, lb, source, leg, id, host] {
      source->inject([eng, result, lb, leg, id, host] {
        eng->schedule_detached(leg, [eng, result, lb, id, host] {
          RequestRecord& record = result->trace[static_cast<std::size_t>(id)];
          record.latency = eng->now() - record.arrival;
          lb->add_outstanding(host, -1);
          ++result->completed;
        });
      });
    });
  };

  // Open-loop arrival pump: a self-rescheduling event chain.
  Arrivals arrivals(config_.arrivals,
                    Rng(config_.base_seed ^ 0x94d049bb133111ebull));
  bool generating = false;
  std::function<void()> pump = [&] {
    dispatch(engine.now());
    const SimTime next = arrivals.next();
    if (next < traffic_end) {
      engine.schedule_detached(next - engine.now(), [&] { pump(); });
    } else {
      generating = false;
    }
  };
  {
    const SimTime first = arrivals.next();
    if (first < traffic_end) {
      generating = true;
      engine.schedule_detached(first, [&] { pump(); });
    }
  }

  // Watermark autoscaling: periodic control ticks; scale-ups
  // pay the provisioning delay before the balancer may route to them,
  // scale-downs drain (in-flight requests still complete).
  auto activate_later = [&](int host) {
    provisioning[static_cast<std::size_t>(host)] = 1;
    ++provisioning_count;
    ++out.scale_ups;
    engine.schedule_detached(config_.autoscaler.provisioning_delay,
                             [&, host] {
                               provisioning[static_cast<std::size_t>(host)] = 0;
                               --provisioning_count;
                               balancer.set_active(host, true);
                               out.peak_active = std::max(
                                   out.peak_active, balancer.active_count());
                             });
  };
  auto scale_up = [&](int count) {
    for (int k = 0; k < count; ++k) {
      int pick = -1;
      // Prefer instances whose CHR sits in the recommended band.
      for (int pass = 0; pass < 2 && pick < 0; ++pass) {
        for (int h = 0; h < n; ++h) {
          if (balancer.active(h) ||
              provisioning[static_cast<std::size_t>(h)] != 0) {
            continue;
          }
          if (pass == 0 && !balancer.chr_in_range(h)) continue;
          pick = h;
          break;
        }
      }
      if (pick < 0) return;
      activate_later(pick);
    }
  };
  auto scale_down = [&](int count) {
    for (int k = 0; k < count; ++k) {
      if (balancer.active_count() <= 1) return;  // keep one instance routable
      int pick = -1;
      // Least-loaded active instance, ties to the highest index.
      for (int h = 0; h < n; ++h) {
        if (!balancer.active(h)) continue;
        if (pick < 0 ||
            balancer.outstanding(h) <= balancer.outstanding(pick)) {
          pick = h;
        }
      }
      balancer.set_active(pick, false);
      ++out.scale_downs;
    }
  };
  std::function<void()> tick;
  if (config_.autoscale) {
    tick = [&] {
      const int delta =
          autoscaler.evaluate(engine.now(), balancer.active_count(),
                              provisioning_count, balancer.total_outstanding());
      if (delta > 0) scale_up(delta);
      if (delta < 0) scale_down(-delta);
      if (engine.now() + config_.autoscaler.evaluation_period <= horizon) {
        engine.schedule_detached(config_.autoscaler.evaluation_period,
                                 [&] { tick(); });
      }
    };
    engine.schedule_detached(config_.autoscaler.evaluation_period,
                             [&] { tick(); });
  }

  const auto drained = [&generating, &out] {
    return !generating && out.completed == out.dispatched;
  };
  const bool finished = engine.run_until(drained, horizon);
  PINSIM_CHECK_MSG(finished, "cluster fleet (" << n << " hosts) did not drain "
                                               << "by the horizon");

  // Fold the SLO summary from the trace in request-id order, never in
  // completion order.
  SloTracker tracker(config_.slo);
  for (const RequestRecord& record : out.trace) {
    PINSIM_CHECK(record.latency >= 0);
    tracker.record(to_seconds(record.latency));
  }
  out.slo = tracker.summary();

  out.hosts.reserve(static_cast<std::size_t>(n));
  for (int h = 0; h < n; ++h) {
    const std::size_t i = static_cast<std::size_t>(h);
    FleetHostReport report;
    report.spec = specs[i];
    report.chr = chr[i];
    report.chr_in_range = balancer.chr_in_range(h);
    report.dispatched = dispatched_per_host[i];
    report.served = built.sources[i]->served();
    out.hosts.push_back(std::move(report));
    out.kernel_stats += built.hosts[i]->kernel().stats();
    if (auto* vm = dynamic_cast<virt::VmPlatform*>(built.platforms[i].get())) {
      out.guest_stats += vm->guest().stats();
    }
  }
  out.final_active = balancer.active_count();
  out.shard_stats.local_posts = out.dispatched + out.completed;
  out.engine_stats = engine.stats();
  return out;
}

ClusterResult run_cluster(const FleetConfig& config) {
  Fleet fleet(config);
  return fleet.run();
}

}  // namespace pinsim::cluster
