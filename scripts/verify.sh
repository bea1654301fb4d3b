#!/usr/bin/env bash
# Tier-1 verification plus sanitizer and Release-config perf stages.
#
# 1. Configure + build + ctest in the default (RelWithDebInfo) tree —
#    exactly the ROADMAP tier-1 command, with PINSIM_WERROR=ON so the
#    hardened warning set (-Wall -Wextra -Wshadow -Wnon-virtual-dtor
#    -Wold-style-cast) is zero-tolerance, and with the pinsim_lint
#    tree scan and fixture suite running as ctests (determinism /
#    ordering / index-safety / engine-api / hygiene invariants).
# 2. Build + run the tier-1 tests under ASan+UBSan (the indexed-heap
#    runqueue and the flat cgroup slice arrays index by raw task/cpu
#    ids; the sanitizers catch any stale-index use the unit tests
#    would miss). The quantum-boundary fuzz oracle (randomized
#    wakeup/preemption traces, fast-forward vs skip-free path) runs
#    here too, so the quiet-core replay arithmetic is exercised with
#    poisoned redzones. Skip with PINSIM_SKIP_SANITIZERS=1 for a
#    quick pass.
# 3. Build + run the parallel-harness tests under ThreadSanitizer
#    (util::ThreadPool and ExperimentRunner::measure_all are the only
#    concurrent code in the tree; TSan is the only tool that proves the
#    sweep protocol race-free). The fig3/fig5 determinism suites compare
#    serial runs with --jobs 4. The cluster and task-reclamation suites
#    stay in the filter because the benches run that code on pool
#    workers.
#    Skipped together with the other sanitizers via
#    PINSIM_SKIP_SANITIZERS=1.
# 4. Build pinsim_tests + micro_engine + micro_sched + micro_cluster +
#    micro_hotloop in a Release tree with PINSIM_WERROR=ON, so
#    perf-relevant flags (-O3 -DNDEBUG) compile warning-free on every
#    change (GCC 12 raises -Wrestrict false positives on inlined
#    std::string concatenation only at -O3), and run the micro suites
#    once, writing machine-readable timings to BENCH_engine_latest.json,
#    BENCH_sched_latest.json, BENCH_timer_latest.json (the timer-path
#    subset tracked by BENCH_timer.json), BENCH_cluster_latest.json,
#    and BENCH_hotloop_latest.json (quiet-core fast-forward +
#    boundary batching, tracked by BENCH_hotloop.json) — all
#    gitignored; diff against the committed BENCH_*.json snapshots
#    when touching hot paths. The tier-1 stage also archives the lint
#    report (findings + per-rule counts + scan wall time) to the
#    gitignored LINT_latest.json.
# 5. Run each perfbench workload once at the held-out seed 2020:
#    pinsim_perf compares every simulated digest with
#    perfbench/expected_digests.json and exits nonzero on a mismatch or
#    a failed run, so a change that alters simulated behaviour fails
#    here even where no golden test reaches.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest (warnings are errors) =="
cmake -B build -S . -DPINSIM_WERROR=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j --timeout 300)

echo "== lint report (LINT_latest.json) =="
# Archive the machine-readable lint report (findings, per-rule counts,
# scan wall time) next to the BENCH_*_latest.json artifacts. The tree
# is expected clean — findings fail this stage like a test failure.
./build/tools/lint/pinsim_lint --root . --json > LINT_latest.json

if [[ "${PINSIM_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "== tier-1 under ASan+UBSan =="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan --target pinsim_tests pinsim_examples \
    pinsim_lint pinsim_lint_tests -j
  (cd build-asan && ctest --output-on-failure -j --timeout 300)
  echo "== quantum-boundary fuzz oracle under ASan+UBSan =="
  ./build-asan/tests/pinsim_tests --gtest_filter='*BoundaryFuzz*'

  echo "== parallel harness under TSan =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build build-tsan --target pinsim_tests -j
  ./build-tsan/tests/pinsim_tests \
    --gtest_filter='ThreadPoolTest.*:ExperimentParallelTest.*:ClusterFleetTest.*:ClusterGoldenTest.*:TaskReclaimTest.*:*PlatformReclaimTest.*:RequestSourceTest.*:Fig5DeterminismTest.*:Fig3DeterminismTest.*'
fi

echo "== Release build of tests + micro-benchmarks (warnings are errors) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DPINSIM_WERROR=ON
cmake --build build-release --target pinsim_tests micro_engine micro_sched \
  micro_cluster micro_hotloop -j

echo "== engine micro smoke (BENCH_engine_latest.json) =="
./build-release/bench/micro_engine \
  --benchmark_filter='BM_Engine|BM_Boundary|BM_ThreadPool' \
  --benchmark_out=BENCH_engine_latest.json \
  --benchmark_out_format=json

echo "== scheduler micro smoke (BENCH_sched_latest.json) =="
./build-release/bench/micro_sched \
  --benchmark_out=BENCH_sched_latest.json \
  --benchmark_out_format=json

echo "== timer-path micro smoke (BENCH_timer_latest.json) =="
./build-release/bench/micro_engine \
  --benchmark_filter='BM_BoundaryChurn|BM_EngineReschedule' \
  --benchmark_out=BENCH_timer_latest.json \
  --benchmark_out_format=json

echo "== scheduler hot-loop micro smoke (BENCH_hotloop_latest.json) =="
./build-release/bench/micro_hotloop \
  --benchmark_out=BENCH_hotloop_latest.json \
  --benchmark_out_format=json

echo "== cluster micro smoke (BENCH_cluster_latest.json) =="
./build-release/bench/micro_cluster \
  --benchmark_out=BENCH_cluster_latest.json \
  --benchmark_out_format=json

echo "== perfbench digest check (seed 2020, all workloads) =="
for workload in ffmpeg_sweep web_sweep cluster_fleet; do
  python3 perfbench/run.py --workload "$workload" --seed 2020 --seconds 1 \
    --trace 0
done

echo "verify: OK"
