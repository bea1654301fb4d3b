// The placement set fixed at creation (Task::allowed) and the shared
// steal/balance predicate (can_migrate_to) against the set-building code
// they replaced, written inline below as the reference: randomized
// affinity × cgroup cpuset × throttle state × cpu.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pinsim::os {
namespace {

/// The old Kernel::allowed_cpus, minus its CHECK: recomputed from the
/// executor's cpus, the affinity and the cgroup's cpuset on every call.
hw::CpuSet reference_allowed(const hw::CpuSet& cpus, const Task& task) {
  hw::CpuSet allowed = cpus;
  if (!task.affinity.empty()) allowed = allowed & task.affinity;
  if (task.cgroup != nullptr && !task.cgroup->cpuset().empty()) {
    allowed = allowed & task.cgroup->cpuset();
  }
  return allowed;
}

/// The lambda steal_for / periodic_balance and the guest's three scans
/// each carried.
bool reference_can_migrate(const hw::CpuSet& cpus, const Task& task,
                           hw::CpuId cpu) {
  if (!reference_allowed(cpus, task).contains(cpu)) return false;
  if (task.cgroup != nullptr && task.cgroup->throttled_on(cpu)) return false;
  return true;
}

/// Empty (no restriction) with probability 1/3, else each of `cpus`
/// with a random density.
hw::CpuSet random_subset(Rng& rng, const hw::CpuSet& cpus) {
  hw::CpuSet subset;
  if (rng.uniform_int(0, 2) == 0) return subset;
  const double density = rng.uniform(0.02, 0.6);
  cpus.for_each([&](hw::CpuId cpu) {
    if (rng.uniform(0.0, 1.0) < density) subset.add(cpu);
  });
  return subset;
}

std::unique_ptr<TaskDriver> exit_now() {
  return std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); });
}

TEST(PlacementSetTest, AllowedAndPredicateMatchSetBuildingReference) {
  // 112 cpus: the sets span two words of the bitmap.
  const hw::Topology topo = hw::Topology::dell_r830();
  const hw::CpuSet cpus = topo.all_cpus();
  hw::CostModel costs;
  Rng rng(2024);
  int tasks_checked = 0;
  int rejected = 0;
  int throttled_checks = 0;
  for (int round = 0; round < 12; ++round) {
    sim::Engine engine;
    Kernel kernel(engine, topo, costs, Rng(static_cast<std::uint64_t>(round)));
    std::vector<Cgroup*> groups;
    for (int g = 0; g < 4; ++g) {
      const double limit = g % 2 == 0 ? 2.0 : 0.0;  // half have quota
      groups.push_back(&kernel.create_cgroup(
          {"g" + std::to_string(g), limit, random_subset(rng, cpus)}));
    }
    std::vector<Task*> tasks;
    for (int t = 0; t < 40; ++t) {
      TaskConfig config;
      config.affinity = random_subset(rng, cpus);
      const auto pick = rng.uniform_int(0, static_cast<int>(groups.size()));
      config.cgroup = pick == static_cast<std::int64_t>(groups.size())
                          ? nullptr
                          : groups[static_cast<std::size_t>(pick)];
      // The reference needs a task to read; a scratch record with the
      // same affinity and group stands in for the one create_task makes.
      Task probe(-1, "probe", exit_now());
      probe.affinity = config.affinity;
      probe.cgroup = config.cgroup;
      const hw::CpuSet expected = reference_allowed(cpus, probe);
      if (expected.empty()) {
        EXPECT_THROW(kernel.create_task("t", exit_now(), config),
                     InvariantViolation);
        ++rejected;
        continue;
      }
      Task& task = kernel.create_task("t", exit_now(), config);
      EXPECT_TRUE(task.allowed == expected)
          << task.allowed.to_string() << " vs " << expected.to_string();
      tasks.push_back(&task);
    }
    // Three throttle states per round: fresh, after random charges
    // drain the quota groups' pools (some cpus keep a local slice), and
    // after the period refill releases them.
    for (int phase = 0; phase < 3; ++phase) {
      if (phase == 1) {
        for (Cgroup* group : groups) {
          if (!group->has_quota()) continue;
          for (int c = 0; c < 60; ++c) {
            const auto cpu = static_cast<hw::CpuId>(
                rng.uniform_int(0, topo.num_cpus() - 1));
            group->charge(cpu, usec(rng.uniform_int(100, 20000)));
          }
        }
      } else if (phase == 2) {
        for (Cgroup* group : groups) group->refill_period();
      }
      for (const Task* task : tasks) {
        for (hw::CpuId cpu = 0; cpu < hw::CpuSet::kMaxCpus; ++cpu) {
          const bool expected = reference_can_migrate(cpus, *task, cpu);
          ASSERT_EQ(can_migrate_to(*task, cpu), expected)
              << "task " << task->id() << " cpu " << cpu << " phase "
              << phase;
          if (task->cgroup != nullptr && task->cgroup->throttled_on(cpu)) {
            ++throttled_checks;
          }
        }
      }
    }
    tasks_checked += static_cast<int>(tasks.size());
  }
  // The random draws must reach every branch.
  EXPECT_GT(tasks_checked, 200);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(throttled_checks, 0);
}

TEST(PlacementSetTest, LeavingTheGroupClearsThePlacementSet) {
  sim::Engine engine;
  const hw::Topology topo(1, 8, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(1));
  Cgroup& group = kernel.create_cgroup({"cn", 0.0, hw::CpuSet::of({2, 3})});
  TaskConfig config;
  config.cgroup = &group;
  Task& task = kernel.create_task("t", exit_now(), config);
  EXPECT_TRUE(task.allowed == hw::CpuSet::of({2, 3}));
  group.remove_member(task);
  EXPECT_TRUE(task.allowed.empty());
  EXPECT_FALSE(can_migrate_to(task, 2));
}

}  // namespace
}  // namespace pinsim::os
