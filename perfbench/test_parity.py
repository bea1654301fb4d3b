#!/usr/bin/env python3
"""Parity test: the benchmark measures the program users run.

For each workload, runs pinsim_perf at seed 42 and the user-facing bench
binary of the same sweep (fig3_ffmpeg, fig5_wordpress, scenario_cluster)
at the same repetition count and its default seed 42, and checks that
every per-cell result is bit-identical: same series, same x labels, same
mean and half-width. pinsim_perf drives FFmpeg through deploy +
run_to_completion + collect while fig3_ffmpeg calls run(), so this also
holds the two lifecycles together. pinsim_perf must also match its
expected digest for seed 42 and exit 0.

    python3 perfbench/test_parity.py --build-dir .bench_build

Builds the reference binaries in the build directory first (target
parity_references). Takes about a minute on a 4-core x86 host.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = {
    "ffmpeg_sweep": "fig3_ffmpeg",
    "web_sweep": "fig5_wordpress",
    "cluster_fleet": "scenario_cluster",
}
SEED = 42  # the bench binaries' fixed base seed


def cells(path):
    """Per-cell results of a bench JSON file, titles left out."""
    figures = json.loads(Path(path).read_text())["figures"]
    return [(figure["x_labels"], figure["series"]) for figure in figures]


def check(build_dir, workload, expected):
    out_dir = build_dir / "parity"
    out_dir.mkdir(exist_ok=True)
    perf_json = out_dir / f"{workload}.perf.json"
    ref_json = out_dir / f"{workload}.ref.json"
    perf = subprocess.run(
        [str(build_dir / "pinsim_perf"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0",
         "--expect-digest", expected, "--cells", str(perf_json)],
        capture_output=True, text=True)
    if perf.returncode != 0:
        return f"pinsim_perf exited {perf.returncode}:\n{perf.stdout}{perf.stderr}"
    reps = json.loads(perf_json.read_text())["repetitions"]
    ref = subprocess.run(
        [str(build_dir / REFERENCES[workload]), "--jobs", "1",
         "--reps", str(reps), "--json", str(ref_json)],
        capture_output=True, text=True)
    if ref.returncode != 0:
        return f"{REFERENCES[workload]} exited {ref.returncode}:\n{ref.stderr}"
    if cells(perf_json) != cells(ref_json):
        return (f"per-cell results differ from {REFERENCES[workload]} "
                f"--reps {reps}: compare {perf_json} and {ref_json}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, required=True)
    args = parser.parse_args()
    build_dir = args.build_dir.resolve()
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "parity_references"], check=True, stdout=sys.stderr)
    expected = json.loads((HERE / "expected_digests.json").read_text())
    failures = 0
    for workload in REFERENCES:
        problem = check(build_dir, workload, expected[workload][str(SEED)])
        print(f"{workload}: {'ok' if problem is None else 'FAIL'}")
        if problem is not None:
            print(problem)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
