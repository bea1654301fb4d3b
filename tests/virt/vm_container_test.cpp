#include "support/names.hpp"
#include "virt/vm_container.hpp"

#include <gtest/gtest.h>

#include <memory>

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

struct VmcnHarness {
  VmcnHarness(CpuMode mode, const std::string& instance,
              std::uint64_t seed = 3)
      : spec{PlatformKind::VmContainer, mode, instance_by_name(instance)},
        host(hw::Topology::dell_r830(), hw::CostModel{}, seed),
        platform(host, spec) {}
  PlatformSpec spec;
  Host host;
  VmContainerPlatform platform;
};

TEST(VmContainerTest, TasksJoinGuestCgroup) {
  VmcnHarness h(CpuMode::Vanilla, "Large");
  WorkTaskConfig config;
  os::Task& task = h.platform.spawn(std::move(config), compute_once(msec(1)));
  EXPECT_EQ(task.cgroup, &h.platform.guest_cgroup());
  EXPECT_FALSE(task.sticky_wakeup);
}

TEST(VmContainerTest, PinnedModePinsBothLevels) {
  VmcnHarness h(CpuMode::Pinned, "Large");
  // Level 1: vCPUs bound to host cpus.
  for (const os::Task* vcpu : h.platform.vcpu_tasks()) {
    EXPECT_EQ(vcpu->affinity.count(), 1);
  }
  // Level 2: container pinned over the guest's vCPUs, sticky wakeups.
  EXPECT_EQ(h.platform.guest_cgroup().cpuset().count(), 2);
  WorkTaskConfig config;
  os::Task& task = h.platform.spawn(std::move(config), compute_once(msec(1)));
  EXPECT_TRUE(task.sticky_wakeup);
}

TEST(VmContainerTest, WorkloadCompletes) {
  VmcnHarness h(CpuMode::Vanilla, "xLarge");
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    WorkTaskConfig config;
    config.name = test::numbered("w", i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = h.platform.spawn(std::move(config),
                                      compute_once(msec(20)));
    h.platform.start(task);
  }
  h.host.engine().run_until([&] { return done == 6; }, sec(30));
  EXPECT_EQ(done, 6);
  EXPECT_GT(h.platform.guest_cgroup().stats().usage, 0);
}

TEST(VmContainerTest, AtLeastAsSlowAsPlainVm) {
  auto run = [](PlatformKind kind) {
    const PlatformSpec spec{kind, CpuMode::Vanilla,
                            instance_by_name("Large")};
    Host host(hw::Topology::dell_r830(), hw::CostModel{}, 17);
    auto platform = make_platform(host, spec);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
      WorkTaskConfig config;
      config.on_exit = [&done](os::Task&) { ++done; };
      os::Task& t = platform->spawn(std::move(config),
                                    compute_once(msec(30)));
      platform->start(t);
    }
    host.engine().run_until([&] { return done == 4; }, sec(30));
    EXPECT_EQ(done, 4);
    return host.engine().now();
  };
  const SimTime vm = run(PlatformKind::Vm);
  const SimTime vmcn = run(PlatformKind::VmContainer);
  EXPECT_GE(vmcn, vm);
}

}  // namespace
}  // namespace pinsim::virt
