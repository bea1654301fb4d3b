// Scheduler hot-path micro-benchmarks (google-benchmark).
//
// Targets the three structures the figure sweeps hammer on every
// simulated scheduling event: wakeup placement (idle scan + random
// pick), the per-cpu runqueue (enqueue / pick / remove), and the cgroup
// usage accounting (charge, period refill, aggregation). Before/after
// numbers for the word-scan CpuSet + idle-mask + flat-heap overhaul are
// recorded in BENCH_sched.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/topology.hpp"
#include "os/cgroup.hpp"
#include "os/kernel.hpp"
#include "os/runqueue.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace pinsim::os {

// Bench-only access to the kernel's private wakeup placement so the
// micro measures exactly the placement decision, not a whole wake/block
// round trip. Also used by the scheduler tests to validate the idle
// masks against a recompute.
struct SchedBenchAccess {
  static hw::CpuId place(Kernel& kernel, Task& task, hw::CpuId hint) {
    return kernel.place_task(task, hint);
  }
};

}  // namespace pinsim::os

namespace {

using namespace pinsim;

std::unique_ptr<os::Task> bench_task(os::Task::Id id, SimDuration vruntime) {
  // += rather than "t" + std::to_string(id): GCC 12 at -O3 reports a
  // false -Wrestrict on the inlined operator+.
  std::string name = "t";
  name += std::to_string(id);
  auto task = std::make_unique<os::Task>(
      id, std::move(name),
      std::make_unique<os::LambdaDriver>(
          [](os::Task&) { return os::Action::exit(); }));
  task->vruntime = vruntime;
  return task;
}

void BM_WakeupPlacementIdleHost(benchmark::State& state) {
  // The vanilla-container wakeup on the paper's 112-cpu testbed: no
  // usable previous cpu, an IRQ locality hint, and an (almost) entirely
  // idle host — the placement must scan the allowed set for idle cpus
  // near the hint's socket and pick one at random.
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  const hw::CostModel costs;
  os::Kernel kernel(engine, topo, costs, Rng(7));
  os::Task& wakee = kernel.create_task(
      "wakee", std::make_unique<os::LambdaDriver>(
                   [](os::Task&) { return os::Action::exit(); }));
  const hw::CpuId hint = topo.socket_cpus(1).first();
  for (auto _ : state) {
    benchmark::DoNotOptimize(os::SchedBenchAccess::place(kernel, wakee, hint));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WakeupPlacementIdleHost);

void BM_WakeupPlacementPinned(benchmark::State& state) {
  // Pinned-container wakeup: a small cpuset, no hint — the idle scan
  // covers only the 4 allowed cpus.
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  const hw::CostModel costs;
  os::Kernel kernel(engine, topo, costs, Rng(7));
  os::TaskConfig config;
  config.affinity = topo.compact_set(4);
  os::Task& wakee = kernel.create_task(
      "wakee",
      std::make_unique<os::LambdaDriver>(
          [](os::Task&) { return os::Action::exit(); }),
      config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(os::SchedBenchAccess::place(kernel, wakee, -1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WakeupPlacementPinned);

void BM_RunqueueEnqueuePop(benchmark::State& state) {
  // Fill-then-drain cycle at the given queue depth; dominated by the
  // queue's node management (std::set allocation vs. flat heap).
  const int depth = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<std::unique_ptr<os::Task>> tasks;
  tasks.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    tasks.push_back(bench_task(i, static_cast<SimDuration>(
                                      rng.uniform_int(0, msec(20)))));
  }
  os::Runqueue rq;
  for (auto _ : state) {
    for (auto& task : tasks) rq.enqueue(*task);
    while (!rq.empty()) benchmark::DoNotOptimize(&rq.pop_min());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_RunqueueEnqueuePop)->Arg(4)->Arg(16)->Arg(64);

void BM_RunqueueChurn(benchmark::State& state) {
  // Steady-state mix: remove a random queued task and re-enqueue it with
  // a new vruntime — the steal / balance / requeue pattern.
  const int depth = 32;
  Rng rng(13);
  std::vector<std::unique_ptr<os::Task>> tasks;
  os::Runqueue rq;
  for (int i = 0; i < depth; ++i) {
    tasks.push_back(bench_task(i, static_cast<SimDuration>(
                                      rng.uniform_int(0, msec(20)))));
    rq.enqueue(*tasks.back());
  }
  for (auto _ : state) {
    os::Task& task =
        *tasks[static_cast<std::size_t>(rng.uniform_int(0, depth - 1))];
    rq.remove(task);
    task.vruntime = static_cast<SimDuration>(rng.uniform_int(0, msec(20)));
    rq.enqueue(task);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunqueueChurn);

void BM_CgroupChargeSpread(benchmark::State& state) {
  // A quota group smeared across many cpus: every charge touches a
  // different per-cpu slice record (the PSO mechanism's data).
  const int spread = static_cast<int>(state.range(0));
  const hw::CostModel costs;
  os::Cgroup group({"bench", 64.0, {}}, costs);
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.charge(cpu, usec(50)));
    cpu = (cpu + 1) % spread;
    if (group.throttled()) group.refill_period();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CgroupChargeSpread)->Arg(2)->Arg(16)->Arg(112);

void BM_CgroupPeriodRefill(benchmark::State& state) {
  // Period boundary for a wide group: reset every touched per-cpu slice
  // plus the usage-aggregation walk over the spread.
  const int spread = static_cast<int>(state.range(0));
  const hw::CostModel costs;
  os::Cgroup group({"bench", 64.0, {}}, costs);
  for (auto _ : state) {
    for (int cpu = 0; cpu < spread; ++cpu) {
      benchmark::DoNotOptimize(group.charge(cpu, usec(50)));
    }
    benchmark::DoNotOptimize(group.aggregate());
    group.refill_period();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CgroupPeriodRefill)->Arg(16)->Arg(112);

void BM_WakeSleepCycle(benchmark::State& state) {
  // End-to-end public-API path: tasks ping-ponging between sleep and a
  // tiny compute burst on the 112-cpu host — every cycle runs the full
  // wake → place → enqueue → dispatch chain.
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const hw::Topology topo = hw::Topology::dell_r830();
    const hw::CostModel costs;
    os::Kernel kernel(engine, topo, costs, Rng(3));
    for (int i = 0; i < tasks; ++i) {
      auto cycles = std::make_shared<int>(200);
      std::string name = "t";
      name += std::to_string(i);
      os::Task& task = kernel.create_task(
          std::move(name),
          std::make_unique<os::LambdaDriver>([cycles](os::Task&) {
            if (--*cycles < 0) return os::Action::exit();
            return *cycles % 2 == 0 ? os::Action::sleep_for(usec(50))
                                    : os::Action::compute(usec(5));
          }));
      kernel.start_task(task);
    }
    state.ResumeTiming();
    kernel.run_until_quiescent();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 100);
}
BENCHMARK(BM_WakeSleepCycle)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
