// IO actions, interrupts, and IRQ steering.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "hw/disk.hpp"
#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "support/names.hpp"

namespace pinsim::os {
namespace {

class IrqRecorder : public SchedObserver {
 public:
  void on_irq(int cpu) override { irq_cpus.insert(cpu); }
  std::set<int> irq_cpus;
};

/// Driver: loop { compute, read }, then exit.
std::unique_ptr<TaskDriver> io_loop(hw::IoDevice& device, SimDuration work,
                                    int iterations) {
  auto n = std::make_shared<int>(0);
  auto io_next = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>(
      [&device, n, io_next, work, iterations](Task&) {
        if (*n >= iterations) return Action::exit();
        if (!*io_next) {
          *io_next = true;
          return Action::compute(work);
        }
        *io_next = false;
        ++*n;
        return Action::io(device, hw::IoRequest{hw::IoKind::Read, 4.0});
      });
}

struct Harness {
  explicit Harness(const hw::Topology& topo, std::uint64_t seed = 1)
      : topology(topo),
        kernel(engine, topology, costs, Rng(seed)),
        disk(hw::IoDevice::raid1_hdd(engine, Rng(seed + 1))) {}
  sim::Engine engine;
  hw::Topology topology;
  hw::CostModel costs;
  Kernel kernel;
  hw::IoDevice disk;
};

TEST(KernelIoTest, IoBlocksAndResumes) {
  Harness h(hw::Topology(1, 2, 1, 16.0));
  Task& t = h.kernel.create_task("reader", io_loop(h.disk, msec(1), 5));
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(t.stats.io_ops, 5);
  EXPECT_GT(t.stats.block_time, 0);
  EXPECT_EQ(t.state, TaskState::Finished);
  EXPECT_EQ(h.disk.completed(), 5);
  EXPECT_EQ(h.kernel.stats().irqs, 5);
}

TEST(KernelIoTest, BlockTimeMatchesDeviceLatency) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Task& t = h.kernel.create_task("reader", io_loop(h.disk, usec(100), 20));
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  // Block time should be close to the sum of device latencies.
  const double device_total =
      h.disk.latency().sum();  // seconds across 20 ops
  EXPECT_NEAR(to_seconds(t.stats.block_time), device_total, 0.002);
}

TEST(KernelIoTest, IrqStealsTimeFromRunningTask) {
  // One cpu: a cpu hog runs while a reader's completions interrupt it.
  Harness h(hw::Topology(1, 1, 1, 16.0));
  auto hog_state = std::make_shared<bool>(false);
  Task& hog = h.kernel.create_task(
      "hog", std::make_unique<LambdaDriver>([hog_state](Task&) {
        if (*hog_state) return Action::exit();
        *hog_state = true;
        return Action::compute(msec(200));
      }));
  Task& reader = h.kernel.create_task("reader", io_loop(h.disk, usec(10), 10));
  h.kernel.start_task(hog);
  h.kernel.start_task(reader);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  // The hog's cpu time exceeds its pure work by the stolen overheads.
  EXPECT_GT(hog.stats.cpu_time, msec(200));
  EXPECT_GT(hog.stats.overhead_paid, 0);
}

TEST(KernelIoTest, IrqSteeredToPinnedTasksCpu) {
  Harness h(hw::Topology::dell_r830());
  IrqRecorder recorder;
  h.kernel.add_observer(recorder);
  TaskConfig config;
  config.affinity = hw::CpuSet::of({5});
  Task& t = h.kernel.create_task("pinned-reader",
                                 io_loop(h.disk, usec(50), 15), config);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  ASSERT_FALSE(recorder.irq_cpus.empty());
  for (int cpu : recorder.irq_cpus) {
    EXPECT_EQ(cpu, 5);
  }
}

TEST(KernelIoTest, UnpinnedIrqsSpreadRoundRobin) {
  Harness h(hw::Topology::dell_r830());
  IrqRecorder recorder;
  h.kernel.add_observer(recorder);
  Task& t = h.kernel.create_task("reader", io_loop(h.disk, usec(50), 30));
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_GT(recorder.irq_cpus.size(), 10u);
}

TEST(KernelIoTest, ManyConcurrentIoTasksFinish) {
  Harness h(hw::Topology(1, 8, 2, 16.0));
  for (int i = 0; i < 50; ++i) {
    Task& t = h.kernel.create_task(test::numbered("r", i),
                                   io_loop(h.disk, usec(200), 8));
    h.kernel.start_task(t);
  }
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(h.disk.completed(), 400);
  EXPECT_EQ(h.kernel.live_tasks(), 0);
}

TEST(KernelIoTest, IoActiveFlagSetAfterFirstIo) {
  Harness h(hw::Topology(1, 2, 1, 16.0));
  Task& t = h.kernel.create_task("reader", io_loop(h.disk, usec(10), 1));
  EXPECT_FALSE(t.io_active);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_TRUE(t.io_active);
}

}  // namespace
}  // namespace pinsim::os
