#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); a traced run (--trace 1) also writes its
spans as Chrome trace-event JSON to <build dir>/traces/<workload>-seed<n>.json,
which Perfetto opens offline. The last line printed is the result object. When
the build or the run fails, nothing is printed on stdout and the exit code is
not 0.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"  # an exported checkout is not a git repository


def source_digest():
    """SHA-256 over the library sources, which identifies the code measured
    even where there is no git history."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def build(build_dir):
    # Configuring every time is cheap once the tree exists, and it recovers a
    # tree whose first configure was interrupted.
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    generator = ["-G", "Ninja"] if fresh and shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *generator]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return {metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # A run takes about --seconds plus set-ups, warm-up and verification.
    timeout_s = 2 * args.seconds + 120
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout_s:g} s")
        return 1
    if run.returncode != 0:
        log(f"run failed with exit code {run.returncode}")
        return 1

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("run printed no result line")
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(expected)}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
