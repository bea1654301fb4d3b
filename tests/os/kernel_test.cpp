// Core scheduler behaviour: fairness, work conservation, action protocol.
#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "support/names.hpp"

namespace pinsim::os {
namespace {

/// Driver: compute `work` once, then exit.
std::unique_ptr<TaskDriver> compute_once(SimDuration work) {
  auto state = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>([state, work](Task&) {
    if (*state) return Action::exit();
    *state = true;
    return Action::compute(work);
  });
}

struct Harness {
  explicit Harness(const hw::Topology& topo, std::uint64_t seed = 1)
      : topology(topo), kernel(engine, topology, costs, Rng(seed)) {}

  sim::Engine engine;
  hw::Topology topology;
  hw::CostModel costs;
  Kernel kernel;
};

TEST(KernelTest, SingleComputeTaskRunsToCompletion) {
  Harness h(hw::Topology(1, 4, 1, 16.0));
  Task& task = h.kernel.create_task("worker", compute_once(msec(10)));
  h.kernel.start_task(task);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(task.state, TaskState::Finished);
  EXPECT_EQ(task.stats.work_done, msec(10));
  // Total time = work + small scheduling overheads.
  EXPECT_GE(h.engine.now(), msec(10));
  EXPECT_LT(h.engine.now(), msec(11));
  EXPECT_GE(task.stats.cpu_time, msec(10));
}

TEST(KernelTest, TwoTasksShareOneCpuFairly) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Task& a = h.kernel.create_task("a", compute_once(msec(100)));
  Task& b = h.kernel.create_task("b", compute_once(msec(100)));
  h.kernel.start_task(a);
  h.kernel.start_task(b);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  // Serialized on one cpu: ~200 ms total.
  EXPECT_GE(h.engine.now(), msec(200));
  EXPECT_LT(h.engine.now(), msec(205));
  // Both finish near the end (interleaved), not one after the other.
  EXPECT_GT(a.stats.finished_at, msec(150));
  EXPECT_GT(b.stats.finished_at, msec(150));
  // Fairness: similar vruntime at completion.
  EXPECT_NEAR(static_cast<double>(a.vruntime),
              static_cast<double>(b.vruntime),
              static_cast<double>(msec(25)));
}

TEST(KernelTest, WorkConservationAcrossCpus) {
  Harness h(hw::Topology(1, 2, 1, 16.0));
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    Task& t = h.kernel.create_task(test::numbered("t", i),
                                   compute_once(msec(50)));
    tasks.push_back(&t);
    h.kernel.start_task(t);
  }
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  // 200 ms of work over 2 cpus: ~100 ms makespan if work-conserving.
  EXPECT_GE(h.engine.now(), msec(100));
  EXPECT_LT(h.engine.now(), msec(110));
}

TEST(KernelTest, ParallelTasksUseAllCpus) {
  Harness h(hw::Topology(1, 4, 1, 16.0));
  for (int i = 0; i < 4; ++i) {
    Task& t = h.kernel.create_task(test::numbered("t", i),
                                   compute_once(msec(50)));
    h.kernel.start_task(t);
  }
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_LT(h.engine.now(), msec(55));
}

TEST(KernelTest, ComputeInflationStretchesCpuTimeNotWork) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  TaskConfig config;
  config.compute_inflation = 2.0;
  Task& t = h.kernel.create_task("guest-ish", compute_once(msec(10)), config);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(t.stats.work_done, msec(10));
  EXPECT_GE(t.stats.cpu_time, msec(20));
  EXPECT_LT(t.stats.cpu_time, msec(21));
}

TEST(KernelTest, SleepBlocksForRequestedDuration) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  auto stage = std::make_shared<int>(0);
  Task& t = h.kernel.create_task(
      "sleeper", std::make_unique<LambdaDriver>([stage](Task&) {
        switch ((*stage)++) {
          case 0:
            return Action::compute(msec(1));
          case 1:
            return Action::sleep_for(msec(20));
          default:
            return Action::exit();
        }
      }));
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_GE(t.stats.block_time, msec(20));
  EXPECT_LT(t.stats.block_time, msec(21));
  EXPECT_GE(h.engine.now(), msec(21));
}

TEST(KernelTest, PostAndRecvPingPong) {
  Harness h(hw::Topology(1, 2, 1, 16.0));
  // a posts to b, b replies, N rounds.
  constexpr int kRounds = 10;
  Task* a_ptr = nullptr;
  Task* b_ptr = nullptr;
  auto a_round = std::make_shared<int>(0);
  auto b_round = std::make_shared<int>(0);
  auto a_sent = std::make_shared<bool>(false);
  auto b_sent = std::make_shared<bool>(false);

  Task& a = h.kernel.create_task(
      "a", std::make_unique<LambdaDriver>([&b_ptr, a_round, a_sent](Task&) {
        if (*a_round >= kRounds) return Action::exit();
        if (!*a_sent) {
          *a_sent = true;
          return Action::post(*b_ptr);
        }
        *a_sent = false;
        ++*a_round;
        return Action::recv();
      }));
  Task& b = h.kernel.create_task(
      "b", std::make_unique<LambdaDriver>([&a_ptr, b_round, b_sent](Task&) {
        if (*b_round >= kRounds) return Action::exit();
        if (!*b_sent) {
          *b_sent = true;
          return Action::recv();
        }
        *b_sent = false;
        ++*b_round;
        return Action::post(*a_ptr);
      }));
  a_ptr = &a;
  b_ptr = &b;
  h.kernel.start_task(a);
  h.kernel.start_task(b);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(a.stats.messages_sent, kRounds);
  EXPECT_EQ(b.stats.messages_sent, kRounds);
  EXPECT_EQ(a.state, TaskState::Finished);
  EXPECT_EQ(b.state, TaskState::Finished);
}

TEST(KernelTest, ExternalPostWakesReceiver) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  auto stage = std::make_shared<int>(0);
  Task& t = h.kernel.create_task(
      "server", std::make_unique<LambdaDriver>([stage](Task&) {
        return (*stage)++ == 0 ? Action::recv() : Action::exit();
      }));
  h.kernel.start_task(t);
  h.engine.schedule(msec(5), [&] { h.kernel.post_external(t); });
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(t.state, TaskState::Finished);
  EXPECT_GE(t.stats.block_time, msec(4));
}

TEST(KernelTest, OnExitCallbackInvoked) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  SimTime finished = -1;
  TaskConfig config;
  config.on_exit = [&](Task&) { finished = h.engine.now(); };
  Task& t = h.kernel.create_task("cb", compute_once(msec(3)), config);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_GE(finished, msec(3));
}

TEST(KernelTest, HorizonReturnsFalseWhenUnfinished) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Task& t = h.kernel.create_task("long", compute_once(sec(10)));
  h.kernel.start_task(t);
  EXPECT_FALSE(h.kernel.run_until_quiescent(msec(100)));
  EXPECT_EQ(t.state, TaskState::Running);
}

TEST(KernelTest, DeterministicUnderSameSeed) {
  // Wake-heavy contended workload so that placement randomness matters.
  auto run_once = [](std::uint64_t seed) {
    Harness h(hw::Topology(2, 2, 1, 16.0), seed);
    std::vector<SimTime> finishes;
    for (int i = 0; i < 12; ++i) {
      auto n = std::make_shared<int>(0);
      auto sleeping = std::make_shared<bool>(false);
      auto driver = std::make_unique<LambdaDriver>([n, sleeping](Task&) {
        if (*n >= 15) return Action::exit();
        if (!*sleeping) {
          *sleeping = true;
          return Action::compute(msec(2));
        }
        *sleeping = false;
        ++*n;
        return Action::sleep_for(msec(1));
      });
      TaskConfig config;
      config.on_exit = [&finishes, &h](Task&) {
        finishes.push_back(h.engine.now());
      };
      Task& t = h.kernel.create_task(test::numbered("t", i),
                                     std::move(driver), config);
      h.kernel.start_task(t);
    }
    h.kernel.run_until_quiescent();
    return finishes;
  };
  EXPECT_EQ(run_once(99), run_once(99));
}

TEST(KernelTest, DifferentSeedsDivergeWithStochasticService) {
  // Device service times are drawn from the kernel's seeded stream, so
  // distinct seeds must produce distinct schedules.
  auto run_once = [](std::uint64_t seed) {
    Harness h(hw::Topology(1, 2, 1, 16.0), seed);
    hw::IoDevice disk = hw::IoDevice::raid1_hdd(h.engine, Rng(seed * 7 + 1));
    auto n = std::make_shared<int>(0);
    auto io_next = std::make_shared<bool>(false);
    Task& t = h.kernel.create_task(
        "io", std::make_unique<LambdaDriver>([&disk, n, io_next](Task&) {
          if (*n >= 10) return Action::exit();
          if (!*io_next) {
            *io_next = true;
            return Action::compute(msec(1));
          }
          *io_next = false;
          ++*n;
          return Action::io(disk, hw::IoRequest{hw::IoKind::Read, 4.0});
        }));
    h.kernel.start_task(t);
    h.kernel.run_until_quiescent();
    return h.engine.now();
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(KernelTest, StatsCountContextSwitches) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  for (int i = 0; i < 3; ++i) {
    Task& t = h.kernel.create_task(test::numbered("t", i),
                                   compute_once(msec(30)));
    h.kernel.start_task(t);
  }
  h.kernel.run_until_quiescent();
  // 90 ms of compute at 1+ switch per slice: several switches.
  EXPECT_GT(h.kernel.stats().context_switches, 5);
  EXPECT_EQ(h.kernel.live_tasks(), 0);
}

TEST(KernelTest, ZeroWorkTaskExitsCleanly) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Task& t = h.kernel.create_task(
      "noop",
      std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }));
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(t.state, TaskState::Finished);
}

TEST(KernelTest, RunawayDriverDetected) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Task& t = h.kernel.create_task(
      "spinner", std::make_unique<LambdaDriver>(
                     [](Task&) { return Action::compute(0); }));
  h.kernel.start_task(t);
  EXPECT_THROW(h.kernel.run_until_quiescent(), InvariantViolation);
}

}  // namespace
}  // namespace pinsim::os
