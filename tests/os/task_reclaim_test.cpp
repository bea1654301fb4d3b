// Reclamation of detached tasks by the host kernel: a detached task is
// freed (slot, cgroup membership, exit callback) at the first
// create_task after its exit callback returns, joinable tasks stay, and
// task ids never repeat, so runqueue vruntime ties still resolve in
// creation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace pinsim::os {
namespace {

/// Driver: compute `work` once, then exit. Records its first run in
/// `order` when given.
std::unique_ptr<TaskDriver> compute_once(
    SimDuration work, std::vector<std::string>* order = nullptr) {
  auto started = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>([started, work, order](Task& task) {
    if (*started) return Action::exit();
    *started = true;
    if (order != nullptr) order->push_back(task.name());
    return Action::compute(work);
  });
}

TaskConfig detached_in(Cgroup* group) {
  TaskConfig config;
  config.cgroup = group;
  config.detached = true;
  return config;
}

struct Harness {
  explicit Harness(int cpus)
      : topology(1, cpus, 1, 16.0),
        kernel(engine, topology, costs, Rng(7)) {}

  sim::Engine engine;
  hw::Topology topology;
  hw::CostModel costs;
  Kernel kernel;
};

TEST(TaskReclaimTest, DetachedTaskIsFreedAtTheNextCreate) {
  Harness h(2);
  Cgroup& group = h.kernel.create_cgroup({"cn", 0.0, {}});
  int exits = 0;
  for (int i = 0; i < 3; ++i) {
    TaskConfig config = detached_in(&group);
    config.on_exit = [&exits](Task&) { ++exits; };
    h.kernel.start_task(h.kernel.create_task(
        "req" + std::to_string(i), compute_once(msec(2)), std::move(config)));
  }
  ASSERT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(exits, 3);
  // Exited, not yet reclaimed: reclamation waits for the next create.
  EXPECT_EQ(h.kernel.tasks().size(), 3u);
  EXPECT_EQ(h.kernel.stats().tasks_reaped, 0);

  Task& next = h.kernel.create_task("next", compute_once(msec(1)),
                                    detached_in(&group));
  ASSERT_EQ(h.kernel.tasks().size(), 1u);
  EXPECT_EQ(h.kernel.tasks().front().get(), &next);
  EXPECT_EQ(group.members(), (std::vector<Task*>{&next}));
  EXPECT_EQ(h.kernel.stats().tasks_reaped, 3);
  h.kernel.start_task(next);
  ASSERT_TRUE(h.kernel.run_until_quiescent());
}

TEST(TaskReclaimTest, JoinableTasksAreKept) {
  Harness h(2);
  Cgroup& group = h.kernel.create_cgroup({"cn", 0.0, {}});
  TaskConfig joinable;
  joinable.cgroup = &group;
  Task& kept = h.kernel.create_task("kept", compute_once(msec(3)), joinable);
  Task& freed = h.kernel.create_task("freed", compute_once(msec(3)),
                                     detached_in(&group));
  h.kernel.start_task(kept);
  h.kernel.start_task(freed);
  ASSERT_TRUE(h.kernel.run_until_quiescent());

  h.kernel.create_task("probe", compute_once(msec(1)), joinable);
  ASSERT_EQ(h.kernel.tasks().size(), 2u);
  EXPECT_EQ(h.kernel.tasks()[0].get(), &kept);
  EXPECT_EQ(h.kernel.tasks()[1]->name(), "probe");
  EXPECT_EQ(group.members().size(), 2u);
  // A joinable task's record stays readable after exit.
  EXPECT_EQ(kept.state, TaskState::Finished);
  EXPECT_EQ(kept.stats.work_done, msec(3));
  EXPECT_EQ(h.kernel.stats().tasks_reaped, 1);
}

TEST(TaskReclaimTest, IdsStayMonotonicSoTiesResolveInCreationOrder) {
  Harness h(1);
  Task& early = h.kernel.create_task("early", compute_once(msec(1)),
                                     detached_in(nullptr));
  std::vector<std::string> order;
  Task& older = h.kernel.create_task("older", compute_once(msec(1), &order));
  h.kernel.start_task(early);
  ASSERT_TRUE(h.kernel.run_until_quiescent());

  // Reaps `early`. A size-derived id would hand `newer` the id `older`
  // already holds.
  Task& newer = h.kernel.create_task("newer", compute_once(msec(1), &order));
  EXPECT_EQ(h.kernel.stats().tasks_reaped, 1);
  EXPECT_EQ(older.id(), 1);
  EXPECT_EQ(newer.id(), 2);

  // A running task holds the cpu while both are queued at the same
  // vruntime, newest first; the (vruntime, id) tie-break must still
  // pick the one created first.
  Task& runner = h.kernel.create_task("runner", compute_once(msec(5)));
  h.kernel.start_task(runner);
  h.kernel.start_task(newer);
  h.kernel.start_task(older);
  EXPECT_EQ(newer.vruntime, older.vruntime);
  ASSERT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(order, (std::vector<std::string>{"older", "newer"}));
}

TEST(TaskReclaimTest, ExitCallbackMayCreateTasksWithoutFreeingItsOwn) {
  // Back-to-back serving: each request's exit callback creates and
  // starts the next request, so the create (and its reap) runs inside
  // the finishing task's own exit. The finishing task must survive its
  // callback; it is freed by the create after that.
  Harness h(2);
  Cgroup& group = h.kernel.create_cgroup({"cn", 0.0, {}});
  constexpr int kRequests = 50;
  int created = 0;
  std::size_t peak_tasks = 0;
  std::function<void()> spawn = [&] {
    TaskConfig config = detached_in(&group);
    config.on_exit = [&](Task& self) {
      if (created < kRequests) spawn();
      // Still alive and readable after the nested create.
      EXPECT_EQ(self.state, TaskState::Finished);
      EXPECT_GE(self.stats.finished_at, self.stats.started_at);
    };
    Task& task = h.kernel.create_task("req" + std::to_string(created++),
                                      compute_once(msec(1)), std::move(config));
    peak_tasks = std::max(peak_tasks, h.kernel.tasks().size());
    h.kernel.start_task(task);
  };
  spawn();
  ASSERT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(created, kRequests);
  // The exiting task plus its successor.
  EXPECT_EQ(peak_tasks, 2u);
  // Each create frees the request that exited two creates earlier; the
  // last two wait for a create that never comes.
  EXPECT_EQ(h.kernel.stats().tasks_reaped, kRequests - 2);
  EXPECT_EQ(h.kernel.tasks().size(), 2u);
  EXPECT_EQ(group.members().size(), 2u);
}

TEST(TaskReclaimTest, KernelStatsFoldFieldWise) {
  KernelStats a;
  a.context_switches = 3;
  a.tasks_reaped = 5;
  a.migration_penalty_total = 7;
  KernelStats b;
  b.context_switches = 1;
  b.tasks_reaped = 2;
  b.wakeups = 4;
  a += b;
  EXPECT_EQ(a.context_switches, 4);
  EXPECT_EQ(a.tasks_reaped, 7);
  EXPECT_EQ(a.wakeups, 4);
  EXPECT_EQ(a.migration_penalty_total, 7);
}

}  // namespace
}  // namespace pinsim::os
