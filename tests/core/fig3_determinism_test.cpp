// End-to-end determinism of a Figure 3 (FFmpeg) subset: the rendered
// report must be byte-identical between --jobs 1 and --jobs 4 at a fixed
// seed, and must match a golden hash. FFmpeg is the CPU-bound grid — a
// few long threads per cell — so these cells drive the event engine's
// per-core quantum-boundary timers: batched same-instant boundary peers,
// quiet-core windows, deferred timer re-arms, and the guest kernel's
// timers (VM, VMCN). Any refactor of the engine or the boundary paths
// that perturbs the simulated behaviour, not just its speed, fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/figure.hpp"
#include "core/report.hpp"
#include "virt/platform.hpp"
#include "workload/ffmpeg.hpp"

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

/// The named Figure 3 subset: all seven platform series at Large (the
/// most contended size), plus every vanilla series at 4xLarge (where
/// FFmpeg's threads spread over the most cores; bare metal keeps the
/// 4xLarge overhead ratios defined). The pinned 4xLarge series are
/// skipped.
bool outside_fig3_subset(const virt::PlatformSpec& spec) {
  return spec.instance.name != "Large" && spec.mode != virt::CpuMode::Vanilla;
}

/// The subset at 2 reps, swept and rendered the way the fig3_ffmpeg
/// bench does it (build_figure, default report options).
std::string render_fig3(int jobs) {
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  FigureSpec spec;
  spec.title = "Figure 3 subset — FFmpeg";
  spec.instances = {"Large", "4xLarge"};
  spec.skip = outside_fig3_subset;
  spec.jobs = jobs;
  const stats::Figure figure =
      build_figure(runner, spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::Ffmpeg>(); };
      });
  std::ostringstream out;
  print_figure_report(out, figure);
  return out.str();
}

// Golden FNV-1a hash of the jobs=1 report, recorded on the tree before
// the event engine's 4-ary heap was replaced by a radix queue. Do not
// regenerate it to make a refactor pass: a mismatch means simulated
// behaviour changed.
constexpr std::uint64_t kGoldenHash = 0xe9e4d500e45a2b6eull;

// One test, so the serial sweep (the slow half) runs once per process.
TEST(Fig3DeterminismTest, SerialReportMatchesGoldenAndParallel) {
  const std::string serial = render_fig3(1);
  EXPECT_EQ(fnv1a(serial), kGoldenHash)
      << "fig3 report drifted; actual hash 0x" << std::hex << fnv1a(serial)
      << "\nreport:\n"
      << serial;
  EXPECT_EQ(serial, render_fig3(4));
}

}  // namespace
}  // namespace pinsim::core
