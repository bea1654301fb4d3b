// Idle/busy placement-mask invariants.
//
// Wakeup placement is pure mask arithmetic over idle_, idle_socket_ and
// busy_, which are maintained incrementally (refresh_cpu_masks) at every
// core-state mutation. This test recomputes the masks from scratch from
// the per-core state at many points of a busy mixed workload and checks
// the incremental copies never drift.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "support/names.hpp"

namespace pinsim::os {

// Friend of Kernel (shared with bench/micro_sched.cpp); gives the test
// access to the private masks and core states.
struct SchedBenchAccess {
  static void expect_masks_consistent(const Kernel& kernel) {
    const hw::Topology& topo = *kernel.topology_;
    hw::CpuSet idle;
    hw::CpuSet busy;
    std::vector<hw::CpuSet> idle_socket(
        static_cast<std::size_t>(topo.sockets()));
    for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
      const auto i = static_cast<std::size_t>(cpu);
      if (kernel.current_[i] != nullptr) busy.add(cpu);
      if (kernel.current_[i] == nullptr && kernel.rq_[i].empty()) {
        idle.add(cpu);
        idle_socket[static_cast<std::size_t>(topo.socket_of(cpu))].add(cpu);
      }
    }
    EXPECT_EQ(kernel.idle_.to_string(), idle.to_string());
    EXPECT_EQ(kernel.busy_.to_string(), busy.to_string());
    ASSERT_EQ(kernel.idle_socket_.size(), idle_socket.size());
    for (std::size_t s = 0; s < idle_socket.size(); ++s) {
      EXPECT_EQ(kernel.idle_socket_[s].to_string(),
                idle_socket[s].to_string())
          << "socket " << s;
    }
  }
};

namespace {

std::unique_ptr<TaskDriver> compute_sleep_loop(SimDuration work,
                                               SimDuration sleep,
                                               int iterations) {
  auto n = std::make_shared<int>(0);
  auto sleeping = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>(
      [n, sleeping, work, sleep, iterations](Task&) {
        if (*n >= iterations) return Action::exit();
        if (!*sleeping) {
          *sleeping = true;
          return Action::compute(work);
        }
        *sleeping = false;
        ++*n;
        return Action::sleep_for(sleep);
      });
}

TEST(SchedMasksTest, MasksMatchRecomputeThroughoutBusyRun) {
  sim::Engine engine;
  // Multi-socket topology so the per-socket masks are exercised, with
  // more runnable tasks than cpus so cores oscillate idle/busy and the
  // balancer migrates work.
  hw::Topology topo(2, 3, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(11));
  SchedBenchAccess::expect_masks_consistent(kernel);  // all idle at boot

  std::vector<Task*> tasks;
  for (int i = 0; i < 10; ++i) {
    Task& t = kernel.create_task(
        test::numbered("w", i),
        compute_sleep_loop(msec(2 + i % 3), msec(1 + i % 2), 12), {});
    kernel.start_task(t);
    tasks.push_back(&t);
  }
  // Step through the run, validating at every pause point.
  bool done = false;
  for (int step = 1; step <= 120 && !done; ++step) {
    done = kernel.run_until_quiescent(msec(step));
    SchedBenchAccess::expect_masks_consistent(kernel);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  SchedBenchAccess::expect_masks_consistent(kernel);  // all idle again
  for (Task* task : tasks) {
    EXPECT_EQ(task->state, TaskState::Finished);
  }
}

TEST(SchedMasksTest, MasksMatchRecomputeWithCpusetAndQuota) {
  sim::Engine engine;
  hw::Topology topo(2, 2, 2, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(5));
  Cgroup& group =
      kernel.create_cgroup({"cn", 0.5, hw::CpuSet::first_n(2)});
  for (int i = 0; i < 3; ++i) {
    TaskConfig config;
    config.cgroup = &group;
    Task& t = kernel.create_task(test::numbered("g", i),
                                 compute_sleep_loop(msec(4), msec(1), 8),
                                 config);
    kernel.start_task(t);
  }
  Task& free_task =
      kernel.create_task("free", compute_sleep_loop(msec(3), msec(2), 10), {});
  kernel.start_task(free_task);

  bool done = false;
  for (int step = 1; step <= 400 && !done; ++step) {
    done = kernel.run_until_quiescent(msec(step));
    SchedBenchAccess::expect_masks_consistent(kernel);
  }
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace pinsim::os
