// Parameterized property suites over the kernel: invariants that must
// hold for any topology, load level, and seed.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <tuple>

#include "hw/disk.hpp"
#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "support/names.hpp"

namespace pinsim::os {
namespace {

struct Shape {
  int sockets;
  int cores;
  int smt;
};

class KernelPropertyTest
    : public ::testing::TestWithParam<std::tuple<Shape, int, int>> {};

/// Mixed workload: compute/sleep/io loops with varying intensity.
void spawn_mixed(Kernel& kernel, hw::IoDevice& disk, int tasks, Rng& rng) {
  for (int i = 0; i < tasks; ++i) {
    const int iterations = 5 + static_cast<int>(rng.uniform_int(0, 10));
    const SimDuration work = usec(200 + 100 * (i % 7));
    const int flavour = i % 3;
    auto n = std::make_shared<int>(0);
    auto phase = std::make_shared<int>(0);
    kernel.start_task(kernel.create_task(
        test::numbered("t", i),
        std::make_unique<LambdaDriver>(
            [&disk, n, phase, work, iterations, flavour](Task&) {
              if (*n >= iterations) return Action::exit();
              switch ((*phase)++ % 2) {
                case 0:
                  return Action::compute(work);
                default:
                  ++*n;
                  if (flavour == 0) return Action::sleep_for(usec(300));
                  if (flavour == 1) {
                    return Action::io(disk,
                                      hw::IoRequest{hw::IoKind::Read, 4.0});
                  }
                  return Action::compute(work / 2);
              }
            })));
  }
}

TEST_P(KernelPropertyTest, WorkConservationAndAccountingIdentities) {
  const auto& [shape, tasks, seed] = GetParam();
  sim::Engine engine;
  const hw::Topology topo(shape.sockets, shape.cores, shape.smt, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(static_cast<std::uint64_t>(seed)));
  hw::IoDevice disk = hw::IoDevice::raid1_hdd(engine, Rng(seed + 1));
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  spawn_mixed(kernel, disk, tasks, rng);

  ASSERT_TRUE(kernel.run_until_quiescent(sec(120)));

  SimDuration total_cpu = 0;
  for (const auto& task : kernel.tasks()) {
    const auto& s = task->stats;
    // Every started task finished.
    EXPECT_EQ(task->state, TaskState::Finished) << task->name();
    // Lifetime decomposition: a task is either on-cpu, waiting, or
    // blocked; the pieces cannot exceed its lifetime.
    const SimDuration lifetime = s.finished_at - s.started_at;
    EXPECT_GE(lifetime, 0);
    EXPECT_LE(s.cpu_time + s.wait_time + s.block_time,
              lifetime + msec(1))
        << task->name();
    // cpu_time = useful work + paid overhead (within rounding).
    EXPECT_NEAR(static_cast<double>(s.cpu_time),
                static_cast<double>(s.work_done + s.overhead_paid),
                1000.0)
        << task->name();
    total_cpu += s.cpu_time;
  }
  // Total cpu time cannot exceed cpus x makespan (no cpu oversubscription).
  const double capacity =
      to_seconds(engine.now()) * topo.num_cpus();
  EXPECT_LE(to_seconds(total_cpu), capacity * 1.0001);
}

TEST_P(KernelPropertyTest, AffinityNeverViolatedUnderChurn) {
  const auto& [shape, tasks, seed] = GetParam();
  sim::Engine engine;
  const hw::Topology topo(shape.sockets, shape.cores, shape.smt, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(static_cast<std::uint64_t>(seed)));
  hw::IoDevice disk = hw::IoDevice::raid1_hdd(engine, Rng(seed + 1));

  // Every task gets a random small affinity mask; record slice cpus.
  struct Recorder : SchedObserver {
    void on_slice(const Task& task, int cpu, SimDuration) override {
      EXPECT_TRUE(task.affinity.empty() || task.affinity.contains(cpu))
          << task.name() << " ran on " << cpu << " outside "
          << task.affinity.to_string();
    }
  } recorder;
  kernel.add_observer(recorder);

  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 3);
  for (int i = 0; i < tasks; ++i) {
    TaskConfig config;
    hw::CpuSet mask;
    const int width = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int k = 0; k < width; ++k) {
      mask.add(static_cast<int>(
          rng.uniform_int(0, topo.num_cpus() - 1)));
    }
    config.affinity = mask;
    auto n = std::make_shared<int>(0);
    auto phase = std::make_shared<bool>(false);
    Task& task = kernel.create_task(
        test::numbered("a", i),
        std::make_unique<LambdaDriver>([&disk, n, phase](Task&) {
          if (*n >= 8) return Action::exit();
          if (!*phase) {
            *phase = true;
            return Action::compute(usec(400));
          }
          *phase = false;
          ++*n;
          return Action::io(disk, hw::IoRequest{hw::IoKind::Read, 4.0});
        }),
        config);
    kernel.start_task(task);
  }
  ASSERT_TRUE(kernel.run_until_quiescent(sec(120)));
}

std::string kernel_property_name(
    const ::testing::TestParamInfo<KernelPropertyTest::ParamType>& info) {
  const Shape shape = std::get<0>(info.param);
  std::string name = test::numbered("s", shape.sockets);
  name += test::numbered("c", shape.cores);
  name += test::numbered("t", shape.smt);
  name += test::numbered("_n", std::get<1>(info.param));
  name += test::numbered("_seed", std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    TopologyLoadSeedSweep, KernelPropertyTest,
    ::testing::Combine(::testing::Values(Shape{1, 2, 1}, Shape{1, 4, 2},
                                         Shape{2, 4, 2}, Shape{4, 14, 2}),
                       ::testing::Values(3, 17, 60),
                       ::testing::Values(1, 99)),
    kernel_property_name);

class QuotaPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(QuotaPropertyTest, UsageRateNeverExceedsQuota) {
  const auto& [limit, tasks] = GetParam();
  sim::Engine engine;
  const hw::Topology topo(2, 8, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(11));
  Cgroup& group = kernel.create_cgroup({"q", limit, {}});
  for (int i = 0; i < tasks; ++i) {
    TaskConfig config;
    config.cgroup = &group;
    auto done = std::make_shared<bool>(false);
    Task& task = kernel.create_task(
        test::numbered("w", i),
        std::make_unique<LambdaDriver>([done](Task&) {
          if (*done) return Action::exit();
          *done = true;
          return Action::compute(msec(80));
        }),
        config);
    kernel.start_task(task);
  }
  ASSERT_TRUE(kernel.run_until_quiescent(sec(600)));
  const double seconds = to_seconds(engine.now());
  const double used = to_seconds(group.stats().usage);
  // Enforcement slack (as in real CFS bandwidth control): each cpu may
  // overrun by one accounting granule per period before it notices the
  // pool is dry.
  const double periods = seconds / to_seconds(costs.cfs_period) + 1.0;
  const double slack = topo.num_cpus() *
                           to_seconds(costs.cgroup_aggregate_interval) *
                           periods +
                       0.01;
  EXPECT_LE(used, limit * seconds + slack)
      << "limit " << limit << " cores, " << tasks << " tasks";
}

std::string quota_property_name(
    const ::testing::TestParamInfo<QuotaPropertyTest::ParamType>& info) {
  return "limit" +
         std::to_string(static_cast<int>(std::get<0>(info.param) * 10)) +
         "_tasks" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    QuotaSweep, QuotaPropertyTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 6.0),
                       ::testing::Values(2, 8, 24)),
    quota_property_name);

}  // namespace
}  // namespace pinsim::os
