#include "support/names.hpp"
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "hw/disk.hpp"
#include "sim/engine.hpp"

namespace pinsim::trace {
namespace {

std::unique_ptr<os::TaskDriver> io_loop(hw::IoDevice& device,
                                        SimDuration work, int iterations) {
  auto n = std::make_shared<int>(0);
  auto io_next = std::make_shared<bool>(false);
  return std::make_unique<os::LambdaDriver>(
      [&device, n, io_next, work, iterations](os::Task&) {
        if (*n >= iterations) return os::Action::exit();
        if (!*io_next) {
          *io_next = true;
          return os::Action::compute(work);
        }
        *io_next = false;
        ++*n;
        return os::Action::io(device, hw::IoRequest{hw::IoKind::Read, 4.0});
      });
}

TEST(TraceTest, SessionObservesKernelActivity) {
  sim::Engine engine;
  const hw::Topology topo(1, 4, 2, 16.0);
  hw::CostModel costs;
  os::Kernel kernel(engine, topo, costs, Rng(5));
  hw::IoDevice disk = hw::IoDevice::raid1_hdd(engine, Rng(6));
  TraceSession trace(kernel);

  for (int i = 0; i < 6; ++i) {
    os::Task& task = kernel.create_task(test::numbered("t", i),
                                        io_loop(disk, msec(1), 10));
    kernel.start_task(task);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());

  EXPECT_GT(trace.cpudist().histogram().count(), 0);
  EXPECT_GT(trace.cpudist().mean_slice_us(), 0.0);
  EXPECT_GT(trace.offcputime().histogram().count(), 0);
  EXPECT_GT(trace.offcputime().total_blocked_seconds(), 0.0);
  EXPECT_GT(trace.sched().context_switches(), 0);
  EXPECT_EQ(trace.sched().irqs(), 60);
}

TEST(TraceTest, CpuDistReflectsSliceLengths) {
  sim::Engine engine;
  const hw::Topology topo(1, 1, 1, 16.0);
  hw::CostModel costs;
  os::Kernel kernel(engine, topo, costs, Rng(7));
  TraceSession trace(kernel);

  auto state = std::make_shared<bool>(false);
  os::Task& task = kernel.create_task(
      "solo", std::make_unique<os::LambdaDriver>([state](os::Task&) {
        if (*state) return os::Action::exit();
        *state = true;
        return os::Action::compute(msec(5));
      }));
  kernel.start_task(task);
  kernel.run_until_quiescent();
  // One slice of ~5 ms => bucket around 4096..8191 us.
  EXPECT_EQ(trace.cpudist().histogram().count(), 1);
  EXPECT_NEAR(trace.cpudist().mean_slice_us(), 5000.0, 200.0);
}

TEST(TraceTest, SchedStatsClassifyMigrationsByDistance) {
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  hw::CostModel costs;
  os::Kernel kernel(engine, topo, costs, Rng(9));
  TraceSession trace(kernel);

  // Heavy oversubscription forces migrations, including cross-socket.
  for (int i = 0; i < 160; ++i) {
    auto n = std::make_shared<int>(0);
    auto sleeping = std::make_shared<bool>(false);
    os::Task& task = kernel.create_task(
        test::numbered("m", i),
        std::make_unique<os::LambdaDriver>([n, sleeping](os::Task&) {
          if (*n >= 15) return os::Action::exit();
          if (!*sleeping) {
            *sleeping = true;
            return os::Action::compute(msec(2));
          }
          *sleeping = false;
          ++*n;
          return os::Action::sleep_for(msec(1));
        }));
    kernel.start_task(task);
  }
  kernel.run_until_quiescent();
  const auto total = trace.sched().migrations_smt() +
                     trace.sched().migrations_same_socket() +
                     trace.sched().migrations_cross_socket();
  EXPECT_EQ(total, kernel.stats().migrations);
  EXPECT_GT(total, 0);
  EXPECT_GT(trace.sched().migration_penalty_seconds(), 0.0);
}

TEST(TraceTest, ReportMentionsAllSections) {
  sim::Engine engine;
  const hw::Topology topo(1, 2, 1, 16.0);
  hw::CostModel costs;
  os::Kernel kernel(engine, topo, costs, Rng(11));
  TraceSession trace(kernel);
  auto state = std::make_shared<bool>(false);
  os::Task& task = kernel.create_task(
      "t", std::make_unique<os::LambdaDriver>([state](os::Task&) {
        if (*state) return os::Action::exit();
        *state = true;
        return os::Action::compute(msec(1));
      }));
  kernel.start_task(task);
  kernel.run_until_quiescent();
  const std::string report = trace.report();
  EXPECT_NE(report.find("cpudist"), std::string::npos);
  EXPECT_NE(report.find("offcputime"), std::string::npos);
  EXPECT_NE(report.find("sched counters"), std::string::npos);
}

}  // namespace
}  // namespace pinsim::trace
