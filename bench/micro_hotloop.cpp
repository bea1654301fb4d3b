// Scheduler hot-loop micro-benchmarks (google-benchmark): quiet-core
// fast-forward and quantum-boundary batching.
//
// Each family runs the same end-to-end workload with the optimization
// toggled via SchedParams::quiet_fast_forward (Arg 0 = off, Arg 1 = on),
// so the before/after delta comes out of one binary; the aligned-sweep
// family characterizes the same-instant boundary drain, which has no
// toggle. Recorded numbers live in BENCH_hotloop.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "virt/factory.hpp"
#include "virt/vm.hpp"

namespace {

using namespace pinsim;

/// Long compute bursts separated by short naps: one task per core makes
/// every burst a quiet window (5+ skipped boundaries at the 12ms solo
/// slice), and every nap end re-enters through the wakeup path.
std::unique_ptr<os::TaskDriver> solo_burst_loop(SimDuration work,
                                                int cycles) {
  auto n = std::make_shared<int>(cycles);
  auto sleeping = std::make_shared<bool>(false);
  return std::make_unique<os::LambdaDriver>([n, sleeping, work](os::Task&) {
    if (*n <= 0) return os::Action::exit();
    if (!*sleeping) {
      *sleeping = true;
      return os::Action::compute(work);
    }
    *sleeping = false;
    --*n;
    return os::Action::sleep_for(usec(200));
  });
}

void BM_QuietSoloCores(benchmark::State& state) {
  // The fast-forward sweet spot: a mostly-solo host (one long-running
  // task per core, the paper's pinned bare-metal shape). Off: every core
  // fires a boundary every 12ms for a pure slice restart. On: one parked
  // timer per burst.
  const bool quiet = state.range(0) != 0;
  os::SchedParams params;
  params.quiet_fast_forward = quiet;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const hw::Topology topo = hw::Topology::dell_r830();
    const hw::CostModel costs;
    os::Kernel kernel(engine, topo, costs, Rng(3), params);
    for (int i = 0; i < topo.num_cpus(); ++i) {
      kernel.start_task(kernel.create_task("solo" + std::to_string(i),
                                           solo_burst_loop(msec(120), 3)));
    }
    state.ResumeTiming();
    kernel.run_until_quiescent();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuietSoloCores)->Arg(0)->Arg(1);

void BM_QuietRevocationChurn(benchmark::State& state) {
  // Worst case for the optimization: windows open but sibling sleepers
  // keep waking onto the quiet cores, so nearly every window is revoked
  // early and its skipped boundaries replayed. Measures revocation
  // overhead, not the skip win — off vs on should be near parity.
  const bool quiet = state.range(0) != 0;
  os::SchedParams params;
  params.quiet_fast_forward = quiet;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const hw::Topology topo(2, 8, 1, 16.0);
    const hw::CostModel costs;
    os::Kernel kernel(engine, topo, costs, Rng(9), params);
    // 16 long computes own the cores; 16 nappers wake every ~3ms and
    // land on them, revoking whatever window just opened.
    for (int i = 0; i < topo.num_cpus(); ++i) {
      kernel.start_task(kernel.create_task("own" + std::to_string(i),
                                           solo_burst_loop(msec(60), 2)));
    }
    for (int i = 0; i < topo.num_cpus(); ++i) {
      auto n = std::make_shared<int>(40);
      auto sleeping = std::make_shared<bool>(true);
      kernel.start_task(kernel.create_task(
          "nap" + std::to_string(i),
          std::make_unique<os::LambdaDriver>([n, sleeping](os::Task&) {
            if (*n <= 0) return os::Action::exit();
            if (*sleeping) {
              *sleeping = false;
              return os::Action::compute(usec(100));
            }
            *sleeping = true;
            --*n;
            return os::Action::sleep_for(msec(3));
          })));
    }
    state.ResumeTiming();
    kernel.run_until_quiescent();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuietRevocationChurn)->Arg(0)->Arg(1);

void BM_BoundarySweepAligned(benchmark::State& state) {
  // Same-instant boundary coalescing: every core carries `depth` equal
  // tasks started together, so quantum boundaries land on the same
  // nanosecond across all cores and drain through one batched sweep
  // instead of one heap pop per core. No toggle — the SoA sweep is
  // structural — so this is a characterization number.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const hw::Topology topo = hw::Topology::dell_r830();
    const hw::CostModel costs;
    os::Kernel kernel(engine, topo, costs, Rng(5));
    for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
      for (int k = 0; k < depth; ++k) {
        os::TaskConfig config;
        config.affinity = hw::CpuSet::of({cpu});
        auto once = std::make_shared<bool>(false);
        // += rather than operator+: GCC 12 at -O3 reports a false
        // -Wrestrict on "p" + std::to_string(cpu).
        std::string name = "p";
        name += std::to_string(cpu);
        name += '_';
        name += std::to_string(k);
        kernel.start_task(kernel.create_task(
            std::move(name),
            std::make_unique<os::LambdaDriver>([once](os::Task&) {
              if (*once) return os::Action::exit();
              *once = true;
              return os::Action::compute(msec(50));
            }),
            config));
      }
    }
    state.ResumeTiming();
    kernel.run_until_quiescent();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundarySweepAligned)->Arg(2)->Arg(4);

void BM_GuestHousekeepingQuiet(benchmark::State& state) {
  // One level down: a pinned VM whose guest runqueues are empty (one
  // task per vCPU) fast-forwards its housekeeping timer instead of
  // ticking every aggregation interval.
  const bool quiet = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    virt::PlatformSpec spec{virt::PlatformKind::Vm, virt::CpuMode::Pinned,
                            virt::instance_by_name("2xLarge")};
    virt::Host host(hw::Topology::dell_r830(), hw::CostModel{}, 7);
    virt::VmConfig vm_config;
    vm_config.guest_params.quiet_fast_forward = quiet;
    virt::VmPlatform platform(host, spec, vm_config);
    int done = 0;
    const int tasks = platform.guest().vcpus();
    for (int i = 0; i < tasks; ++i) {
      virt::WorkTaskConfig config;
      config.name = "g";
      config.name += std::to_string(i);
      config.on_exit = [&done](os::Task&) { ++done; };
      platform.start(
          platform.spawn(std::move(config), solo_burst_loop(msec(80), 2)));
    }
    state.ResumeTiming();
    host.engine().run_until([&] { return done == tasks; }, sec(60));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestHousekeepingQuiet)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
