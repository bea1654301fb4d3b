#include "support/names.hpp"
#include "virt/vm.hpp"

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
        return os::Action::io(device,
                              hw::IoRequest{hw::IoKind::Read, 4.0});
      });
}

struct VmHarness {
  VmHarness(CpuMode mode, const std::string& instance, std::uint64_t seed = 3)
      : spec{PlatformKind::Vm, mode, instance_by_name(instance)},
        host(hw::Topology::dell_r830(), hw::CostModel{}, seed),
        platform(host, spec) {}
  PlatformSpec spec;
  Host host;
  VmPlatform platform;
};

TEST(VmTest, CreatesOneVcpuTaskPerCore) {
  VmHarness h(CpuMode::Vanilla, "2xLarge");
  EXPECT_EQ(h.platform.vcpu_tasks().size(), 8u);
  EXPECT_EQ(h.platform.guest().vcpus(), 8);
  // vCPUs idle (halted) until guest work arrives.
  h.host.engine().run(msec(10));
  for (const os::Task* vcpu : h.platform.vcpu_tasks()) {
    EXPECT_EQ(vcpu->state, os::TaskState::Blocked);
  }
}

TEST(VmTest, GuestComputeCompletesWithInflation) {
  VmHarness h(CpuMode::Vanilla, "Large");
  int done = 0;
  WorkTaskConfig config;
  config.name = "app";
  config.on_exit = [&done](os::Task&) { ++done; };
  os::Task& task = h.platform.spawn(std::move(config), compute_once(msec(50)));
  h.platform.start(task);
  h.host.engine().run_until([&] { return done == 1; }, sec(10));
  ASSERT_EQ(done, 1);
  EXPECT_EQ(task.stats.work_done, msec(50));
  // PTO: ~1.95x bare-metal compute time.
  const double inflation = h.host.costs().guest_compute_inflation;
  EXPECT_GE(h.host.engine().now(),
            static_cast<SimTime>(static_cast<double>(msec(50)) * inflation));
  EXPECT_LT(h.host.engine().now(),
            static_cast<SimTime>(static_cast<double>(msec(50)) *
                                 (inflation + 0.15)));
}

TEST(VmTest, GuestTasksMultiplexOntoVcpus) {
  // 8 guest tasks on a 2-vCPU VM: only 2 can run at a time; the VM's
  // makespan is ~4x a task's inflated runtime.
  VmHarness h(CpuMode::Vanilla, "Large");
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    WorkTaskConfig config;
    config.name = test::numbered("app", i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = h.platform.spawn(std::move(config),
                                      compute_once(msec(25)));
    h.platform.start(task);
  }
  h.host.engine().run_until([&] { return done == 8; }, sec(30));
  ASSERT_EQ(done, 8);
  const double inflation = h.host.costs().guest_compute_inflation;
  const auto floor = static_cast<SimTime>(
      static_cast<double>(msec(100)) * inflation);
  EXPECT_GE(h.host.engine().now(), floor);
  EXPECT_LT(h.host.engine().now(), floor + msec(30));
}

TEST(VmTest, PinnedVcpusBoundToHostCpus) {
  VmHarness h(CpuMode::Pinned, "xLarge");
  for (std::size_t i = 0; i < h.platform.vcpu_tasks().size(); ++i) {
    const os::Task* vcpu = h.platform.vcpu_tasks()[i];
    EXPECT_EQ(vcpu->affinity.count(), 1);
  }
  // Distinct cpus, 1:1.
  hw::CpuSet all;
  for (const os::Task* vcpu : h.platform.vcpu_tasks()) {
    all = all | vcpu->affinity;
  }
  EXPECT_EQ(all.count(), 4);
}

TEST(VmTest, GuestIoGoesThroughVirtio) {
  VmHarness h(CpuMode::Vanilla, "Large");
  int done = 0;
  WorkTaskConfig config;
  config.name = "reader";
  config.on_exit = [&done](os::Task&) { ++done; };
  os::Task& task = h.platform.spawn(
      std::move(config), io_loop(h.platform.disk(), usec(100), 10));
  h.platform.start(task);
  h.host.engine().run_until([&] { return done == 1; }, sec(10));
  ASSERT_EQ(done, 1);
  EXPECT_EQ(task.stats.io_ops, 10);
  EXPECT_EQ(h.platform.guest().stats().io_exits, 10);
  EXPECT_EQ(h.host.disk().completed(), 10);
}

TEST(VmTest, IntraGuestMessagingWorks) {
  VmHarness h(CpuMode::Vanilla, "xLarge");
  int done = 0;
  os::Task* receiver = nullptr;
  auto recv_stage = std::make_shared<int>(0);
  WorkTaskConfig rconfig;
  rconfig.name = "recv";
  rconfig.on_exit = [&done](os::Task&) { ++done; };
  os::Task& r = h.platform.spawn(
      std::move(rconfig),
      std::make_unique<os::LambdaDriver>([recv_stage](os::Task&) {
        return (*recv_stage)++ < 5 ? os::Action::recv() : os::Action::exit();
      }));
  receiver = &r;
  auto send_stage = std::make_shared<int>(0);
  WorkTaskConfig sconfig;
  sconfig.name = "send";
  sconfig.on_exit = [&done](os::Task&) { ++done; };
  os::Task& s = h.platform.spawn(
      std::move(sconfig),
      std::make_unique<os::LambdaDriver>([&receiver, send_stage](os::Task&) {
        if (*send_stage >= 5) return os::Action::exit();
        ++*send_stage;
        return os::Action::post(*receiver);
      }));
  h.platform.start(r);
  h.platform.start(s);
  h.host.engine().run_until([&] { return done == 2; }, sec(10));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(s.stats.messages_sent, 5);
}

TEST(VmTest, ExternalPostReachesGuestTask) {
  VmHarness h(CpuMode::Vanilla, "Large");
  int done = 0;
  auto stage = std::make_shared<int>(0);
  WorkTaskConfig config;
  config.name = "server";
  config.on_exit = [&done](os::Task&) { ++done; };
  os::Task& task = h.platform.spawn(
      std::move(config), std::make_unique<os::LambdaDriver>([stage](os::Task&) {
        return (*stage)++ == 0 ? os::Action::recv() : os::Action::exit();
      }));
  h.platform.start(task);
  h.host.engine().schedule(msec(5), [&] { h.platform.post(task, 1); });
  h.host.engine().run_until([&] { return done == 1; }, sec(5));
  EXPECT_EQ(done, 1);
}

TEST(VmTest, VmSlowerThanBareMetalForCpuBoundWork) {
  // The paper's headline FFmpeg observation in miniature.
  auto vm_time = [] {
    VmHarness h(CpuMode::Vanilla, "xLarge", 11);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
      WorkTaskConfig config;
      config.on_exit = [&done](os::Task&) { ++done; };
      os::Task& t = h.platform.spawn(std::move(config),
                                     compute_once(msec(40)));
      h.platform.start(t);
    }
    h.host.engine().run_until([&] { return done == 4; }, sec(10));
    return h.host.engine().now();
  }();
  auto bm_time = [] {
    const PlatformSpec spec{PlatformKind::BareMetal, CpuMode::Vanilla,
                            instance_by_name("xLarge")};
    Host host(host_topology_for(spec, hw::Topology::dell_r830()),
              hw::CostModel{}, 11);
    auto platform = make_platform(host, spec);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
      WorkTaskConfig config;
      config.on_exit = [&done](os::Task&) { ++done; };
      os::Task& t = platform->spawn(std::move(config),
                                    compute_once(msec(40)));
      platform->start(t);
    }
    host.engine().run_until([&] { return done == 4; }, sec(10));
    return host.engine().now();
  }();
  const double ratio =
      static_cast<double>(vm_time) / static_cast<double>(bm_time);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.3);
}

// The guest kernel checks the placement set at creation too: affinity
// and cpuset are over vCPU ids, and a disjoint pair is rejected before
// any task is made.
TEST(VmTest, GuestTaskWithNoAllowedVcpusRejectedAtCreation) {
  VmHarness h(CpuMode::Vanilla, "2xLarge");
  GuestKernel& guest = h.platform.guest();
  const std::size_t tasks_before = guest.tasks().size();
  os::Cgroup& group =
      guest.create_cgroup({"guest-cn", 0.0, hw::CpuSet::of({0, 1})});
  os::TaskConfig config;
  config.cgroup = &group;
  config.affinity = hw::CpuSet::of({6, 7});
  try {
    guest.create_task("stranded", compute_once(msec(1)), config);
    FAIL() << "guest create_task accepted a task with no allowed vCPUs";
  } catch (const InvariantViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("stranded"), std::string::npos) << message;
    EXPECT_NE(message.find("affinity 6-7"), std::string::npos) << message;
    EXPECT_NE(message.find("cpuset 0-1"), std::string::npos) << message;
  }
  EXPECT_EQ(guest.tasks().size(), tasks_before);
  EXPECT_TRUE(group.members().empty());

  // Affinity beyond the guest's vCPUs is disjoint from the executor.
  os::TaskConfig outside;
  outside.affinity = hw::CpuSet::of({8, 9});
  EXPECT_THROW(guest.create_task("outside", compute_once(msec(1)), outside),
               InvariantViolation);

  config.affinity = hw::CpuSet::of({1, 6});
  const os::Task& task =
      guest.create_task("ok", compute_once(msec(1)), config);
  EXPECT_TRUE(task.allowed == hw::CpuSet::of({1}));
}

// The guest kernel rejects a cgroup it does not own too: a host-side
// group, or another guest's, is never aggregated or refilled by this
// guest. Nothing is made.
TEST(VmTest, GuestForeignCgroupRejectedAtCreation) {
  VmHarness h(CpuMode::Vanilla, "2xLarge");
  VmHarness other(CpuMode::Vanilla, "2xLarge");
  GuestKernel& guest = h.platform.guest();
  const std::size_t tasks_before = guest.tasks().size();
  os::Cgroup& host_group = h.host.kernel().create_cgroup({"host-cn", 1.0, {}});
  os::Cgroup& other_guest_group =
      other.platform.guest().create_cgroup({"other-guest-cn", 1.0, {}});
  for (os::Cgroup* foreign : {&host_group, &other_guest_group}) {
    os::TaskConfig config;
    config.cgroup = foreign;
    try {
      guest.create_task("intruder", compute_once(msec(1)), config);
      FAIL() << "guest create_task accepted foreign cgroup "
             << foreign->name();
    } catch (const InvariantViolation& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("intruder"), std::string::npos) << message;
      EXPECT_NE(message.find(foreign->name()), std::string::npos) << message;
    }
    EXPECT_EQ(guest.tasks().size(), tasks_before);
    EXPECT_TRUE(foreign->members().empty());
  }

  os::Cgroup& own = guest.create_cgroup({"guest-cn", 1.0, {}});
  os::TaskConfig config;
  config.cgroup = &own;
  const os::Task& task =
      guest.create_task("member", compute_once(msec(1)), config);
  EXPECT_EQ(task.cgroup, &own);
}

}  // namespace
}  // namespace pinsim::virt
