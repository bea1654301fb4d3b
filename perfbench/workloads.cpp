#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "cluster/fleet.hpp"
#include "core/experiment.hpp"
#include "core/figure.hpp"
#include "core/report.hpp"
#include "stats/accumulator.hpp"
#include "stats/confidence.hpp"
#include "util/check.hpp"
#include "virt/container.hpp"
#include "virt/factory.hpp"
#include "virt/vm.hpp"
#include "virt/vm_container.hpp"
#include "workload/ffmpeg.hpp"
#include "workload/wordpress.hpp"

namespace perf {

using namespace pinsim;

void accumulate(Counters& total, const Counters& run) {
  for (int i = 0; i < kCounterCount; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    total[k] = i == kPeakHeap ? std::max(total[k], run[k]) : total[k] + run[k];
  }
}

void Fnv1a::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ull;
  }
}

void Fnv1a::str(const std::string& value) {
  u64(value.size());
  bytes(value.data(), value.size());
}

namespace {

// ---------------------------------------------------------------------------
// Figure sweeps (Figures 3 and 5)

/// One (platform, instance) cell of a figure; `x` indexes the instance.
struct SweepCell {
  virt::PlatformSpec spec;
  std::size_t x;
};

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::string title, std::vector<std::string> instances,
                int reps, bool split_lifecycle, core::WorkloadFactory factory,
                int precision, std::uint64_t seed)
      : title_(std::move(title)),
        instances_(std::move(instances)),
        reps_(reps),
        split_lifecycle_(split_lifecycle),
        factory_(std::move(factory)),
        precision_(precision),
        runner_([seed] {
          core::ExperimentConfig config;
          config.base_seed = seed;
          return config;
        }()) {
    // Same cell order as core::build_figure.
    for (std::size_t x = 0; x < instances_.size(); ++x) {
      for (const virt::PlatformSpec& spec :
           virt::paper_series(virt::instance_by_name(instances_[x]))) {
        cells_.push_back(SweepCell{spec, x});
      }
    }
    samples_.assign(cells_.size() * static_cast<std::size_t>(reps_), NAN);
  }

  int runs_per_pass() const override {
    return static_cast<int>(samples_.size());
  }
  int reps() const override { return reps_; }

  RunOutput run(int index, Recorder& recorder, bool count) override;
  void report(std::ostream& out) override;

  std::vector<const stats::Figure*> figures() const override {
    return {&*figure_};
  }

 private:
  std::string title_;
  std::vector<std::string> instances_;
  int reps_;
  bool split_lifecycle_;
  core::WorkloadFactory factory_;
  int precision_;
  core::ExperimentRunner runner_;
  std::vector<SweepCell> cells_;
  std::vector<double> samples_;  // metric_seconds, [cell * reps + rep]
  std::optional<stats::Figure> figure_;
};

Counters read_counters(virt::Host& host, virt::Platform& platform) {
  Counters c{};
  const sim::EngineStats engine = host.engine().stats();
  c[kEventsFired] = engine.fired;
  c[kReschedules] = engine.reschedules;
  c[kDeferredRearms] = engine.deferred_rearms;
  c[kBoundariesBatched] = engine.boundaries_batched;
  c[kBoundariesSkipped] = engine.boundaries_skipped;
  c[kQuietWindows] = engine.quiet_windows;
  c[kPeakHeap] = engine.peak_heap;
  const os::KernelStats& kernel = host.kernel().stats();
  c[kContextSwitches] = kernel.context_switches;
  c[kWakeups] = kernel.wakeups;
  c[kMigrations] = kernel.migrations;
  c[kCrossSocketMigrations] = kernel.cross_socket_migrations;
  c[kSteals] = kernel.steals;
  c[kBalanceMoves] = kernel.balance_moves;
  c[kPreemptions] = kernel.preemptions;
  c[kThrottleEvents] = kernel.throttle_events;
  c[kAggregationEvents] = kernel.aggregation_events;
  if (auto* vm = dynamic_cast<virt::VmPlatform*>(&platform)) {
    const virt::GuestStats& guest = vm->guest().stats();
    c[kGuestDispatches] = guest.dispatches;
    c[kGuestBursts] = guest.bursts;
    c[kIoExits] = guest.io_exits;
    c[kKicks] = guest.kicks;
    c[kHalts] = guest.halts;
  }
  // Cgroup refills: the container's host cgroup (CN) or the cgroup
  // inside the guest (VMCN).
  if (auto* cn = dynamic_cast<virt::ContainerPlatform*>(&platform)) {
    c[kCgroupRefills] = cn->cgroup().stats().slice_refills;
  }
  if (auto* vmcn = dynamic_cast<virt::VmContainerPlatform*>(&platform)) {
    c[kCgroupRefills] = vmcn->guest_cgroup().stats().slice_refills;
  }
  c[kDiskOps] = host.disk().completed();
  c[kNicOps] = host.nic().completed();
  return c;
}

RunOutput SweepWorkload::run(int index, Recorder& recorder, bool count) {
  const std::size_t i = static_cast<std::size_t>(index);
  const SweepCell& cell = cells_[i / static_cast<std::size_t>(reps_)];
  const std::uint64_t seed = runner_.seed_for(index % reps_);
  const core::ExperimentConfig& config = runner_.config();
  samples_[i] = NAN;

  // The same calls, in the same order, as ExperimentRunner::run_once
  // (the parity test holds the two together), with each layer timed.
  Scope run_span(recorder, "run");
  auto workload = factory_();
  std::optional<hw::Topology> topology;
  {
    Scope span(recorder, "hw.topology", true);
    topology.emplace(virt::host_topology_for(cell.spec, config.full_host));
  }
  std::optional<virt::Host> host;
  {
    Scope span(recorder, "virt.host", true);
    host.emplace(std::move(*topology), config.costs, seed);
  }
  std::unique_ptr<virt::Platform> platform;
  {
    Scope span(recorder, "virt.platform", true);
    platform = virt::make_platform(*host, cell.spec);
  }
  const Rng workload_rng(seed ^ 0x517cc1b727220a95ull);

  workload::RunResult result;
  if (split_lifecycle_) {
    std::unique_ptr<workload::Deployment> deployment;
    {
      Scope span(recorder, "workload.deploy");
      deployment = workload->deploy(*platform, workload_rng);
    }
    PINSIM_CHECK_MSG(deployment != nullptr,
                     workload->name() << " has no split lifecycle");
    {
      Scope span(recorder, "workload.drive");
      workload::run_to_completion(*platform, deployment->completion(),
                                  deployment->horizon(), workload->name());
    }
    Scope span(recorder, "workload.collect");
    result = deployment->collect();
  } else {
    Scope span(recorder, "workload.run");
    result = workload->run(*platform, workload_rng);
  }
  samples_[i] = result.metric_seconds;

  RunOutput out;
  Fnv1a digest;
  digest.f64(result.metric_seconds);
  digest.f64(result.wall_seconds);
  for (const auto& [key, value] : result.extras) {
    digest.str(key);
    digest.f64(value);
  }
  out.digest = digest.value();
  out.sane = std::isfinite(result.metric_seconds) &&
             result.metric_seconds > 0.0 &&
             std::isfinite(result.wall_seconds) && result.wall_seconds > 0.0;
  if (count) out.counters = read_counters(*host, *platform);
  return out;
}

void SweepWorkload::report(std::ostream& out) {
  // Same fold as core::build_figure: series in legend order, each cell's
  // samples accumulated in rep order.
  figure_.emplace(title_, instances_);
  for (const virt::PlatformSpec& spec :
       virt::paper_series(virt::instance_by_name(instances_.front()))) {
    figure_->add_series(spec.label());
  }
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    stats::Accumulator samples;
    for (int rep = 0; rep < reps_; ++rep) {
      samples.add(samples_[c * static_cast<std::size_t>(reps_) +
                           static_cast<std::size_t>(rep)]);
    }
    stats::Series* series = figure_->mutable_series(cells_[c].spec.label());
    PINSIM_CHECK(series != nullptr);
    series->set(cells_[c].x, stats::confidence_95(samples));
  }
  core::ReportOptions options;
  options.precision = precision_;
  core::print_figure_report(out, *figure_, options);
}

// ---------------------------------------------------------------------------
// Cluster scenario: the six cells of bench/scenario_cluster.cpp at
// --shards 1 --jobs 1. The configs are copied from there; the parity
// test fails if the two drift apart.

struct ClusterCell {
  std::string name;
  cluster::FleetConfig config;
};

cluster::FleetConfig wordpress_base() {
  cluster::FleetConfig config;
  config.hosts = 50;
  config.app = workload::AppClass::IoWeb;
  config.arrivals.kind = cluster::ArrivalKind::Diurnal;
  config.arrivals.rate_per_second = 2320.0;
  config.arrivals.diurnal_amplitude = 0.8;
  config.arrivals.diurnal_period_seconds = 30.0;
  config.traffic_seconds = 30.0;
  config.drain_seconds = 120.0;
  config.slo.target_seconds = 0.35;
  return config;
}

cluster::FleetConfig cassandra_base() {
  cluster::FleetConfig config;
  config.hosts = 10;
  config.app = workload::AppClass::IoNoSql;
  config.cassandra.server_threads = 8;
  config.arrivals.kind = cluster::ArrivalKind::Burst;
  config.arrivals.rate_per_second = 200.0;
  config.arrivals.burst_multiplier = 4.0;
  config.arrivals.burst_seconds = 5.0;
  config.arrivals.quiet_seconds = 10.0;
  config.traffic_seconds = 30.0;
  config.drain_seconds = 120.0;
  config.slo.target_seconds = 0.25;
  return config;
}

void add_cells(const cluster::FleetConfig& base, int min_instances, int step,
               std::vector<ClusterCell>& cells) {
  ClusterCell vanilla{"vanilla", base};
  vanilla.config.spec.mode = virt::CpuMode::Vanilla;
  vanilla.config.balancer = cluster::BalancerPolicy::RoundRobin;
  cells.push_back(std::move(vanilla));

  ClusterCell pinned{"pinned", base};
  pinned.config.spec.mode = virt::CpuMode::Pinned;
  pinned.config.balancer = cluster::BalancerPolicy::LeastOutstanding;
  cells.push_back(std::move(pinned));

  ClusterCell scaled{"chr-scaled", base};
  scaled.config.pinning = cluster::PinningPolicy::ChrAdvisor;
  scaled.config.balancer = cluster::BalancerPolicy::ChrAware;
  scaled.config.autoscale = true;
  scaled.config.autoscaler.min_instances = min_instances;
  scaled.config.autoscaler.high_watermark = 8.0;
  scaled.config.autoscaler.low_watermark = 4.0;
  scaled.config.autoscaler.step = step;
  scaled.config.autoscaler.cooldown = sec(1);
  scaled.config.autoscaler.provisioning_delay = sec(1);
  cells.push_back(std::move(scaled));
}

/// The per-run values scenario_cluster prints.
struct ClusterSummary {
  cluster::SloSummary slo;
  std::int64_t dispatched = 0;
  std::int64_t scale_ups = 0;
  int peak_active = 0;
};

class ClusterWorkload final : public Workload {
 public:
  explicit ClusterWorkload(std::uint64_t seed) : seed_(seed) {
    add_cells(wordpress_base(), 10, 4, cells_);
    add_cells(cassandra_base(), 4, 3, cells_);
    results_.resize(cells_.size());
  }

  int runs_per_pass() const override {
    return static_cast<int>(cells_.size());
  }
  int reps() const override { return 1; }

  RunOutput run(int index, Recorder& recorder, bool count) override;
  void report(std::ostream& out) override;

  std::vector<const stats::Figure*> figures() const override {
    return {&*wordpress_, &*cassandra_};
  }

 private:
  stats::Figure fold(const std::string& title, std::size_t first,
                     std::ostream& out) const;

  std::uint64_t seed_;
  std::vector<ClusterCell> cells_;
  std::vector<ClusterSummary> results_;  // one rep per cell
  std::optional<stats::Figure> wordpress_;
  std::optional<stats::Figure> cassandra_;
};

RunOutput ClusterWorkload::run(int index, Recorder& recorder, bool count) {
  const std::size_t i = static_cast<std::size_t>(index);
  cluster::FleetConfig config = cells_[i].config;
  config.base_seed = seed_;  // rep 0 of scenario_cluster's seed ladder
  results_[i] = ClusterSummary{};

  // cluster::run_cluster, split so Fleet construction is timed apart.
  Scope run_span(recorder, "run");
  std::optional<cluster::Fleet> fleet;
  {
    Scope span(recorder, "cluster.fleet", true);
    fleet.emplace(std::move(config));
  }
  cluster::ClusterResult result;
  {
    Scope span(recorder, "cluster.run");
    result = fleet->run();
  }
  results_[i] = ClusterSummary{result.slo, result.dispatched,
                               result.scale_ups, result.peak_active};

  RunOutput out;
  Fnv1a digest;
  bool latencies_valid = true;
  for (const cluster::RequestRecord& record : result.trace) {
    digest.i64(record.arrival);
    digest.i64(record.host);
    digest.i64(record.latency);
    latencies_valid = latencies_valid && record.latency >= 0;
  }
  digest.i64(result.dispatched);
  digest.i64(result.completed);
  const cluster::SloSummary& slo = result.slo;
  digest.i64(slo.total);
  digest.i64(slo.violations);
  for (double value : {slo.violation_fraction, slo.p50_seconds,
                       slo.p99_seconds, slo.p999_seconds, slo.mean_seconds,
                       slo.max_seconds}) {
    digest.f64(value);
  }
  digest.i64(result.scale_ups);
  digest.i64(result.scale_downs);
  digest.i64(result.peak_active);
  digest.i64(result.final_active);
  for (const cluster::FleetHostReport& host : result.hosts) {
    digest.str(host.spec.label() + "/" + host.spec.instance.name);
    digest.f64(host.chr);
    digest.i64(host.dispatched);
    digest.i64(host.served);
  }
  out.digest = digest.value();
  out.sane = result.dispatched > 0 && result.completed == result.dispatched &&
             latencies_valid && slo.p50_seconds <= slo.p99_seconds &&
             slo.p99_seconds <= slo.p999_seconds;
  if (count) {
    Counters& c = out.counters;
    const sim::EngineStats& engine = result.engine_stats;
    c[kEventsFired] = engine.fired;
    c[kReschedules] = engine.reschedules;
    c[kDeferredRearms] = engine.deferred_rearms;
    c[kBoundariesBatched] = engine.boundaries_batched;
    c[kBoundariesSkipped] = engine.boundaries_skipped;
    c[kQuietWindows] = engine.quiet_windows;
    c[kPeakHeap] = engine.peak_heap;
    c[kRounds] = result.shard_stats.rounds;
    c[kCrossPosts] = result.shard_stats.cross_posts;
    c[kLocalPosts] = result.shard_stats.local_posts;
    c[kDispatched] = result.dispatched;
    c[kCompleted] = result.completed;
    c[kScaleUps] = result.scale_ups;
  }
  return out;
}

stats::Figure ClusterWorkload::fold(const std::string& title,
                                    std::size_t first,
                                    std::ostream& out) const {
  // Same fold and per-cell lines as scenario_cluster's measure() at one
  // rep per cell.
  stats::Figure figure(title,
                       {"p50 (s)", "p99 (s)", "p99.9 (s)", "SLO miss frac"});
  for (std::size_t c = first; c < first + 3; ++c) {
    const ClusterSummary& summary = results_[c];
    stats::Series& series = figure.add_series(cells_[c].name);
    const double values[] = {summary.slo.p50_seconds, summary.slo.p99_seconds,
                             summary.slo.p999_seconds,
                             summary.slo.violation_fraction};
    for (std::size_t k = 0; k < 4; ++k) {
      stats::Accumulator samples;
      samples.add(values[k]);
      series.set(k, stats::confidence_95(samples));
    }
    out << "  [" << cells_[c].name << "] requests=" << summary.dispatched
        << " scale_ups=" << summary.scale_ups
        << " peak_active=" << summary.peak_active << "\n";
  }
  return figure;
}

void ClusterWorkload::report(std::ostream& out) {
  wordpress_.emplace(fold(
      "Cluster — WordPress fleet (50 hosts, 100M req/day, SLO 0.35 s)", 0,
      out));
  cassandra_.emplace(
      fold("Cluster — Cassandra fleet (10 hosts, bursts, SLO 0.25 s)", 3, out));
  core::ReportOptions options;
  options.precision = 4;
  options.ratios = false;
  core::print_figure_report(out, *wordpress_, options);
  core::print_figure_report(out, *cassandra_, options);
}

}  // namespace

// Pass sizes: enough simulations that one pass takes a few seconds on a
// 4-core x86 host, so a 30-second run holds several passes to take the
// median of. The expected digests in expected_digests.json depend on
// these counts.
constexpr int kFfmpegReps = 4;
constexpr int kWebReps = 1;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ffmpeg_sweep", "web_sweep",
                                                 "cluster_fleet"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "ffmpeg_sweep") {
    return std::make_unique<SweepWorkload>(
        "Figure 3 — FFmpeg (AVC->HEVC, 30 MB HD source)",
        core::fig3_instances(), kFfmpegReps, /*split_lifecycle=*/true,
        [] { return std::make_unique<workload::Ffmpeg>(); }, 2, seed);
  }
  if (name == "web_sweep") {
    return std::make_unique<SweepWorkload>(
        "Figure 5 — WordPress (1,000 simultaneous requests)",
        core::fig456_instances(), kWebReps, /*split_lifecycle=*/false,
        [] { return std::make_unique<workload::WordPress>(); }, 3, seed);
  }
  if (name == "cluster_fleet") return std::make_unique<ClusterWorkload>(seed);
  return nullptr;
}

}  // namespace perf
