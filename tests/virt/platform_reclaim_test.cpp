// Every platform's spawn path honours WorkTaskConfig::detached: the
// executor that runs the task (the host kernel for BM/CN, the guest
// kernel for VM/VMCN) frees a detached task after it exits and keeps a
// joinable one, and the platform's cgroup membership follows.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/topology.hpp"
#include "virt/container.hpp"
#include "virt/factory.hpp"
#include "virt/platform.hpp"
#include "virt/vm.hpp"
#include "virt/vm_container.hpp"

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

struct Bench {
  explicit Bench(const PlatformSpec& spec)
      : host(host_topology_for(spec, hw::Topology::small_host_16()),
             hw::CostModel{}, 11),
        platform(make_platform(host, spec)) {}

  /// The task table of whichever kernel runs this platform's tasks.
  const std::vector<std::unique_ptr<os::Task>>& executor_tasks() {
    if (auto* vm = dynamic_cast<VmPlatform*>(platform.get())) {
      return vm->guest().tasks();
    }
    return host.kernel().tasks();
  }
  std::int64_t reaped() {
    if (auto* vm = dynamic_cast<VmPlatform*>(platform.get())) {
      return vm->guest().stats().tasks_reaped;
    }
    return host.kernel().stats().tasks_reaped;
  }
  /// The platform's container cgroup (host- or guest-side), if any.
  const os::Cgroup* cgroup() {
    if (auto* cn = dynamic_cast<ContainerPlatform*>(platform.get())) {
      return &cn->cgroup();
    }
    if (auto* vmcn = dynamic_cast<VmContainerPlatform*>(platform.get())) {
      return &vmcn->guest_cgroup();
    }
    return nullptr;
  }

  os::Task& spawn(const std::string& name, bool detached, int* exits) {
    WorkTaskConfig config;
    config.name = name;
    config.detached = detached;
    config.on_exit = [exits](os::Task&) { ++*exits; };
    return platform->spawn(std::move(config), compute_once(msec(2)));
  }

  Host host;
  std::unique_ptr<Platform> platform;
};

class PlatformReclaimTest : public ::testing::TestWithParam<PlatformSpec> {};

TEST_P(PlatformReclaimTest, DetachedTasksAreFreedJoinableKept) {
  Bench bench(GetParam());
  const std::size_t resident = bench.executor_tasks().size();
  int exits = 0;
  os::Task& kept = bench.spawn("kept", /*detached=*/false, &exits);
  bench.platform->start(kept);
  for (int i = 0; i < 4; ++i) {
    bench.platform->start(
        bench.spawn("req" + std::to_string(i), /*detached=*/true, &exits));
  }
  bench.host.engine().run_until([&] { return exits == 5; }, sec(10));
  ASSERT_EQ(exits, 5);
  EXPECT_EQ(bench.executor_tasks().size(), resident + 5);

  // The next spawn frees the four detached requests, nothing else.
  os::Task& next = bench.spawn("next", /*detached=*/true, &exits);
  EXPECT_EQ(bench.reaped(), 4);
  ASSERT_EQ(bench.executor_tasks().size(), resident + 2);
  EXPECT_EQ(bench.executor_tasks()[resident].get(), &kept);
  EXPECT_EQ(bench.executor_tasks()[resident + 1].get(), &next);
  EXPECT_GT(next.id(), kept.id() + 4);  // ids are never reused
  EXPECT_EQ(kept.state, os::TaskState::Finished);
  if (const os::Cgroup* group = bench.cgroup()) {
    EXPECT_EQ(group->members(), (std::vector<os::Task*>{&kept, &next}));
  }
  bench.platform->start(next);
  bench.host.engine().run_until([&] { return exits == 6; }, sec(10));
  EXPECT_EQ(exits, 6);
}

const InstanceType& xlarge() { return instance_by_name("xLarge"); }

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, PlatformReclaimTest,
    ::testing::Values(
        PlatformSpec{PlatformKind::BareMetal, CpuMode::Vanilla, xlarge()},
        PlatformSpec{PlatformKind::Container, CpuMode::Vanilla, xlarge()},
        PlatformSpec{PlatformKind::Vm, CpuMode::Pinned, xlarge()},
        PlatformSpec{PlatformKind::VmContainer, CpuMode::Vanilla, xlarge()}),
    [](const ::testing::TestParamInfo<PlatformSpec>& param) {
      std::string label = param.param.label();
      for (char& c : label) {
        if (c == ' ') c = '_';
      }
      return label;
    });

}  // namespace
}  // namespace pinsim::virt
