// The benchmark's workloads: the paper sweeps and the cluster scenario,
// driven through pinsim's public API one simulation at a time.
//
// A pass runs every simulation of a workload once, in cell/rep order,
// then folds the results into the figures the user-facing bench
// binaries print. Each run is a closed loop: the next simulation starts
// when the previous one returns.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "stats/series.hpp"
#include "trace.hpp"

namespace perf {

/// Deterministic work counters read from the layers after a run.
enum Counter : int {
  kEventsFired,
  kReschedules,
  kDeferredRearms,
  kBoundariesBatched,
  kBoundariesSkipped,
  kQuietWindows,
  kPeakHeap,  // folded by max, not by sum
  kRounds,
  kCrossPosts,
  kLocalPosts,
  kContextSwitches,
  kWakeups,
  kMigrations,
  kCrossSocketMigrations,
  kSteals,
  kBalanceMoves,
  kPreemptions,
  kThrottleEvents,
  kAggregationEvents,
  kCgroupRefills,
  kGuestDispatches,
  kGuestBursts,
  kIoExits,
  kKicks,
  kHalts,
  kDiskOps,
  kNicOps,
  kDispatched,
  kCompleted,
  kScaleUps,
  kCounterCount,
};

/// Metric name of each counter (kCompleted is only an input to
/// cluster.completion_ratio and is reported through it).
inline constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "sim.events_fired",        "sim.reschedules",
    "sim.deferred_rearms",     "sim.boundaries_batched",
    "sim.boundaries_skipped",  "sim.quiet_windows",
    "sim.peak_heap",           "sim.rounds",
    "sim.cross_posts",         "sim.local_posts",
    "os.context_switches",     "os.wakeups",
    "os.migrations",           "os.cross_socket_migrations",
    "os.steals",               "os.balance_moves",
    "os.preemptions",          "os.throttle_events",
    "os.aggregation_events",   "os.cgroup_refills",
    "virt.guest_dispatches",   "virt.guest_bursts",
    "virt.io_exits",           "virt.kicks",
    "virt.halts",              "hw.disk_ops",
    "hw.nic_ops",              "cluster.dispatched",
    "cluster.completed",       "cluster.scale_ups",
};

using Counters = std::array<std::int64_t, kCounterCount>;

/// Fold one run's counters into a pass total.
void accumulate(Counters& total, const Counters& run);

/// 64-bit FNV-1a over the bytes of simulated results.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void i64(std::int64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { bytes(&value, sizeof value); }
  void str(const std::string& value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// What one simulation produced, as the benchmark checks it.
struct RunOutput {
  std::uint64_t digest = 0;  // FNV-1a of the run's simulated results
  bool sane = false;         // results passed the plausibility checks
  Counters counters{};       // read only when asked to count
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int runs_per_pass() const = 0;

  /// Repetitions per cell; the bench binaries' --reps for the same sweep.
  virtual int reps() const = 0;

  /// Run simulation `index` (cell/rep order) and keep its result for
  /// report(). Throws when the simulation fails.
  virtual RunOutput run(int index, Recorder& recorder, bool count) = 0;

  /// Fold the pass's results into figures and render them to `out`,
  /// as the bench binaries do.
  virtual void report(std::ostream& out) = 0;

  /// The figures of the last report(), for the parity test.
  virtual std::vector<const pinsim::stats::Figure*> figures() const = 0;
};

const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. `seed` is the workload seed: it becomes
/// ExperimentConfig::base_seed (sweeps) or FleetConfig::base_seed
/// (cluster), exactly as the bench binaries derive per-rep seeds.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perf
