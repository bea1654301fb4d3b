#include "support/names.hpp"
#include "virt/platform.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "util/check.hpp"
#include "virt/bare_metal.hpp"
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

TEST(PlatformSpecTest, LabelsMatchPaperLegend) {
  const InstanceType& large = instance_by_name("Large");
  EXPECT_EQ((PlatformSpec{PlatformKind::Vm, CpuMode::Vanilla, large}).label(),
            "Vanilla VM");
  EXPECT_EQ(
      (PlatformSpec{PlatformKind::VmContainer, CpuMode::Pinned, large})
          .label(),
      "Pinned VMCN");
  EXPECT_EQ(
      (PlatformSpec{PlatformKind::Container, CpuMode::Pinned, large}).label(),
      "Pinned CN");
  EXPECT_EQ(
      (PlatformSpec{PlatformKind::BareMetal, CpuMode::Vanilla, large}).label(),
      "Vanilla BM");
}

TEST(FactoryTest, PaperSeriesHasSevenConfigurations) {
  const auto series = paper_series(instance_by_name("xLarge"));
  ASSERT_EQ(series.size(), 7u);
  EXPECT_EQ(series.front().label(), "Vanilla VM");
  EXPECT_EQ(series.back().label(), "Vanilla BM");
}

TEST(FactoryTest, HostTopologySizedPerPlatform) {
  const hw::Topology full = hw::Topology::dell_r830();
  const InstanceType& xlarge = instance_by_name("xLarge");
  const PlatformSpec bm{PlatformKind::BareMetal, CpuMode::Vanilla, xlarge};
  const PlatformSpec cn{PlatformKind::Container, CpuMode::Vanilla, xlarge};
  EXPECT_EQ(host_topology_for(bm, full).num_cpus(), 4);
  EXPECT_EQ(host_topology_for(cn, full).num_cpus(), 112);
}

TEST(FactoryTest, MakesEveryKind) {
  const hw::Topology full = hw::Topology::dell_r830();
  const InstanceType& large = instance_by_name("Large");
  for (const PlatformSpec& spec : paper_series(large)) {
    Host host(host_topology_for(spec, full), hw::CostModel{}, 42);
    auto platform = make_platform(host, spec);
    ASSERT_NE(platform, nullptr);
    if (spec.kind == PlatformKind::Container &&
        spec.mode == CpuMode::Vanilla) {
      // nproc inside a vanilla container reports the whole host.
      EXPECT_EQ(platform->visible_cpus(), 112);
    } else {
      EXPECT_EQ(platform->visible_cpus(), 2);
    }
    EXPECT_EQ(platform->spec().label(), spec.label());
  }
}

TEST(BareMetalTest, RequiresLimitedHost) {
  const InstanceType& large = instance_by_name("Large");
  const PlatformSpec spec{PlatformKind::BareMetal, CpuMode::Vanilla, large};
  Host full_host(hw::Topology::dell_r830(), hw::CostModel{}, 1);
  EXPECT_THROW(BareMetalPlatform(full_host, spec), InvariantViolation);
}

TEST(BareMetalTest, RunsWorkloadToCompletion) {
  const InstanceType& xlarge = instance_by_name("xLarge");
  const PlatformSpec spec{PlatformKind::BareMetal, CpuMode::Vanilla, xlarge};
  Host host(host_topology_for(spec, hw::Topology::dell_r830()),
            hw::CostModel{}, 2);
  auto platform = make_platform(host, spec);

  int done = 0;
  for (int i = 0; i < 4; ++i) {
    WorkTaskConfig config;
    config.name = test::numbered("t", i);
    config.on_exit = [&done](os::Task&) { ++done; };
    os::Task& task = platform->spawn(std::move(config), compute_once(msec(20)));
    platform->start(task);
  }
  host.engine().run_until([&] { return done == 4; }, sec(5));
  EXPECT_EQ(done, 4);
  // 4 tasks, 4 cpus: parallel, ~20 ms.
  EXPECT_LT(host.engine().now(), msec(25));
}

}  // namespace
}  // namespace pinsim::virt
