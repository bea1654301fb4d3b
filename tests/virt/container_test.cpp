#include "support/names.hpp"
#include "virt/container.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "virt/factory.hpp"

namespace pinsim::virt {
namespace {

std::unique_ptr<os::TaskDriver> compute_once(SimDuration work) {
  auto state = std::make_shared<bool>(false);
  return std::make_unique<os::LambdaDriver>([state, work](os::Task&) {
    if (*state) return os::Action::exit();
    *state = true;
    return os::Action::compute(work);
  });
}

class SliceRecorder : public os::SchedObserver {
 public:
  void on_slice(const os::Task& task, int cpu, SimDuration) override {
    if (task.name().rfind("vcpu", 0) != 0) cpus.insert(cpu);
  }
  std::set<int> cpus;
};

struct ContainerHarness {
  ContainerHarness(CpuMode mode, const std::string& instance,
                   std::uint64_t seed = 5)
      : spec{PlatformKind::Container, mode, instance_by_name(instance)},
        host(hw::Topology::dell_r830(), hw::CostModel{}, seed),
        platform(host, spec) {}
  PlatformSpec spec;
  Host host;
  ContainerPlatform platform;
};

TEST(ContainerTest, QuotaEnforcedOnBigHost) {
  // A Large (2-core) container on the 112-core host: 4 cpu-bound tasks of
  // 50 ms each can use at most 2 cpus' worth of time.
  ContainerHarness h(CpuMode::Vanilla, "Large");
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    WorkTaskConfig config;
    config.name = test::numbered("w", i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = h.platform.spawn(std::move(config),
                                      compute_once(msec(50)));
    h.platform.start(task);
  }
  h.host.engine().run_until([&] { return done == 4; }, sec(10));
  EXPECT_EQ(done, 4);
  // 200 ms of work at 2 cpus of quota: at least ~100 ms.
  EXPECT_GE(h.host.engine().now(), msec(95));
  EXPECT_GT(h.platform.cgroup().stats().usage, msec(195));
}

TEST(ContainerTest, PinnedContainerStaysInCpuset) {
  ContainerHarness h(CpuMode::Pinned, "xLarge");
  SliceRecorder recorder;
  h.host.kernel().add_observer(recorder);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    WorkTaskConfig config;
    config.name = test::numbered("w", i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = h.platform.spawn(std::move(config),
                                      compute_once(msec(10)));
    h.platform.start(task);
  }
  h.host.engine().run_until([&] { return done == 8; }, sec(10));
  EXPECT_EQ(done, 8);
  EXPECT_FALSE(recorder.cpus.empty());
  for (int cpu : recorder.cpus) EXPECT_LT(cpu, 4);
}

TEST(ContainerTest, PinnedTasksAreSticky) {
  ContainerHarness h(CpuMode::Pinned, "Large");
  WorkTaskConfig config;
  os::Task& task = h.platform.spawn(std::move(config), compute_once(msec(1)));
  EXPECT_TRUE(task.sticky_wakeup);

  ContainerHarness v(CpuMode::Vanilla, "Large");
  WorkTaskConfig vconfig;
  os::Task& vtask = v.platform.spawn(std::move(vconfig),
                                     compute_once(msec(1)));
  EXPECT_FALSE(vtask.sticky_wakeup);
}

TEST(ContainerTest, VanillaContainerSpreadsButPinnedDoesNot) {
  auto spread_of = [](CpuMode mode) {
    ContainerHarness h(mode, "xLarge", 7);
    int done = 0;
    for (int i = 0; i < 16; ++i) {
      WorkTaskConfig config;
      config.name = test::numbered("w", i);
      config.on_exit = [&done](os::Task&) { ++done; };
      os::Task& task = h.platform.spawn(std::move(config),
                                        compute_once(msec(30)));
      h.platform.start(task);
    }
    h.host.engine().run_until([&] { return done == 16; }, sec(30));
    EXPECT_EQ(done, 16);
    return h.platform.cgroup().stats().max_spread;
  };
  EXPECT_GT(spread_of(CpuMode::Vanilla), 8);
  EXPECT_LE(spread_of(CpuMode::Pinned), 4);
}

}  // namespace
}  // namespace pinsim::virt
