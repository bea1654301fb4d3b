// End-to-end determinism of a Figure 5 (WordPress) subset: the rendered
// report must be byte-identical between --jobs 1 and --jobs 4 at a fixed
// seed, and must match a golden hash. WordPress is the IO-bound grid —
// thousands of short request tasks — so these cells drive the host
// wakeup/steal/balance paths, the guest kernel's new-idle steal and
// idle-vCPU balance (VM, VMCN), and throttled-cgroup parking on the
// host (CN) and inside the guest (VMCN). Any refactor of those paths
// that perturbs the simulated behaviour, not just its speed, fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "stats/series.hpp"
#include "virt/instance_type.hpp"
#include "virt/platform.hpp"
#include "workload/wordpress.hpp"

namespace pinsim::core {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Fig5Cell {
  virt::PlatformKind kind;
  virt::CpuMode mode;
  const char* instance;
};

/// The named Figure 5 subset: every platform kind at the smallest
/// instance (where contention, steals and throttling are heaviest),
/// plus the virtualized kinds at a mid-size instance.
const std::vector<Fig5Cell>& fig5_subset() {
  using virt::CpuMode;
  using virt::PlatformKind;
  static const std::vector<Fig5Cell> cells = {
      {PlatformKind::Container, CpuMode::Vanilla, "xLarge"},
      {PlatformKind::Container, CpuMode::Pinned, "xLarge"},
      {PlatformKind::Vm, CpuMode::Vanilla, "xLarge"},
      {PlatformKind::Vm, CpuMode::Pinned, "xLarge"},
      {PlatformKind::VmContainer, CpuMode::Vanilla, "xLarge"},
      {PlatformKind::VmContainer, CpuMode::Pinned, "xLarge"},
      {PlatformKind::BareMetal, CpuMode::Vanilla, "xLarge"},
      {PlatformKind::Container, CpuMode::Vanilla, "4xLarge"},
      {PlatformKind::Vm, CpuMode::Pinned, "4xLarge"},
      {PlatformKind::VmContainer, CpuMode::Vanilla, "4xLarge"},
  };
  return cells;
}

/// The subset at 2 reps, rendered like the fig5_wordpress bench renders
/// its report (one column per instance, precision 3).
std::string render_fig5(int jobs) {
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const WorkloadFactory wordpress = [] {
    return std::make_unique<workload::WordPress>();
  };
  std::vector<SweepCell> cells;
  for (const Fig5Cell& cell : fig5_subset()) {
    cells.push_back(SweepCell{
        virt::PlatformSpec{cell.kind, cell.mode,
                           virt::instance_by_name(cell.instance)},
        wordpress, std::nullopt});
  }
  const std::vector<Measurement> results = runner.measure_all(cells, jobs);

  const std::vector<std::string> columns = {"xLarge", "4xLarge"};
  stats::Figure figure("Figure 5 subset — WordPress", columns);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string label = results[i].spec.label();
    if (figure.mutable_series(label) == nullptr) figure.add_series(label);
    const std::size_t x =
        std::string(fig5_subset()[i].instance) == columns[0] ? 0 : 1;
    figure.mutable_series(label)->set(x, results[i].interval());
  }

  ReportOptions report_options;
  report_options.precision = 3;
  std::ostringstream out;
  print_figure_report(out, figure, report_options);
  return out.str();
}

// Golden FNV-1a hash of the jobs=1 report, recorded on the tree before
// task placement sets were fixed at creation. Do not regenerate it to
// make a refactor pass: a mismatch means simulated behaviour changed.
constexpr std::uint64_t kGoldenHash = 0x0b7bd05d971f842cull;

// One test, so the serial sweep (the slow half) runs once per process.
TEST(Fig5DeterminismTest, SerialReportMatchesGoldenAndParallel) {
  const std::string serial = render_fig5(1);
  EXPECT_EQ(fnv1a(serial), kGoldenHash)
      << "fig5 report drifted; actual hash 0x" << std::hex << fnv1a(serial)
      << "\nreport:\n"
      << serial;
  EXPECT_EQ(serial, render_fig5(4));
}

}  // namespace
}  // namespace pinsim::core
