#!/usr/bin/env python3
"""Build pinsim's benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload ffmpeg_sweep --seed 42 \
        --seconds 35 --trace 0

Run from the root of a pinsim checkout. The first call configures and
builds perfbench/ (which compiles the library from src/) into
.bench_build/; later calls only rebuild what changed. pinsim_perf's
output is passed through, so the last line of stdout is its JSON result.
A record of each run (machine context, per-pass times, the result) goes
to .bench_build/results/, and with --trace 1 the spans too.

Exit status: pinsim_perf's (0 all checks passed, 1 a check failed), or 2
for bad arguments or a tree the benchmark cannot build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("ffmpeg_sweep", "web_sweep", "cluster_fleet")
# Slack over --seconds before a pinsim_perf run counts as wedged: it
# stops itself within about one pass (9 s for cluster_fleet) of the mark.
RUN_SLACK_S = 120


def whole_number(low, high):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"{value} is outside [{low}, {high}]")
        return value
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one pinsim benchmark workload (see "
                    "perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=whole_number(0, 2**64 - 1),
                        default=42)
    parser.add_argument("--seconds", type=whole_number(1, 3600),
                        default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build pinsim_perf; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"pinsim sources not found under {ROOT / 'src'}; run from a "
             "full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is required to build the benchmark")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", str(BUILD_DIR), "--target", "pinsim_perf",
          "-j", jobs])
    return BUILD_DIR / "pinsim_perf"


def step(command):
    # Build chatter goes to stderr: stdout ends with the result line.
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(command)}")


def commit_id():
    """The git commit when ROOT is a git work tree, else a digest of the
    sources."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for directory in (ROOT / "src", HERE):
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_digest(workload, seed):
    table = json.loads((HERE / "expected_digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def main(argv):
    args = parse_args(argv)
    binary = build()
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id(),
               "--record", str(results / f"{stem}.json")]
    if args.trace:
        command += ["--spans", str(results / f"{stem}.spans.jsonl")]
    expected = expected_digest(args.workload, args.seed)
    if expected:
        command += ["--expect-digest", expected]
    sys.stdout.flush()
    timeout = args.seconds + RUN_SLACK_S
    try:
        done = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: pinsim_perf exceeded {timeout} s and was stopped",
              file=sys.stderr)
        return 1
    if done.returncode < 0:
        print(f"perfbench: pinsim_perf died with signal {-done.returncode}",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
