#!/usr/bin/env python3
"""Compares two checkouts on one benchmark workload with alternating run pairs.

    python3 scripts/perf_pairs.py --parent <dir> --change <dir> --workload <name> \\
        --first-seed <n> [--pairs 10] [--seconds <s>] [--out runs.json]

Each pair runs the unchanged `perfbench/run.py --trace 0` once in each
checkout with the same seed; the seed is --first-seed + pair index, so every
pair gets a fresh one, and the side that runs first alternates from pair to
pair. Each checkout builds into its own `<dir>/.bench_build`. --seconds
defaults to the change's BENCHMARK.json `run_seconds`.

For every end-to-end metric in the change's BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither side) and a verdict:

  gain        the change won at least 9 of every 10 pairs and its median
              beats the parent's by more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's interquartile range exceeds the bound (relative
              to its median), unless every change run beats every parent run
  unchanged   none of the above

Runs that fail, or report `correct: false` or failed checks, are counted per
side and left out of the statistics (--out keeps their report or stderr). The exit code is 1 when a metric
regresses or the change fails more runs than the parent, else 0.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run: its report and result lines, or the
    command's stderr when it printed no result."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        report, result = (json.loads(line) for line in run.stdout.strip().splitlines()[-2:])
    except ValueError:  # too few lines, or not JSON
        return {"error": run.stderr[-2000:]}
    return {"report": report, "result": result}


def passed(run):
    result = run.get("result")
    return result is not None and result["correct"] and result["failed"] == 0


def describe(stats):
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent, change, better, bound):
    """Classifies paired samples; `parent[i]` and `change[i]` share a seed."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x is worse than y
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    q1_c, q3_c = quartiles(change)
    if wins >= math.ceil(0.9 * len(parent)) and sign * (med_p - med_c) > q3_p - q1_p:
        label = "gain"
    elif sign * (med_c - med_p) > bound * abs(med_p):
        label = "regression"
    elif ((q3_p - q1_p > bound * abs(med_p) or q3_c - q1_c > bound * abs(med_c))
          and not all(sign * (p - c) > 0 for p in parent for c in change)):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": {"median": med_p, "q1": q1_p, "q3": q3_p},
            "change": {"median": med_c, "q1": q1_c, "q3": q3_c},
            "wins": wins, "verdict": label}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; pick seeds not used while developing")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="also write every run's result and the verdicts here")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        results = {side: run_once(sides[side], args.workload, seed, seconds)
                   for side in order}
        runs.append({"seed": seed, "first": order[0], **results})
        summary = "  ".join(
            f"{side}: " + (f"job_s={results[side]['result']['metrics']['job_s']['value']:.3f}"
                           if passed(results[side]) else "FAILED")
            for side in ("parent", "change"))
        print(f"pair {pair + 1}/{args.pairs} seed {seed}: {summary}", file=sys.stderr, flush=True)

    failed = {side: sum(1 for run in runs if not passed(run[side])) for side in sides}
    complete = [run for run in runs if passed(run["parent"]) and passed(run["change"])]
    print(f"{args.workload}: {args.pairs} pairs at --seconds {seconds:g}, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}; failed runs: parent "
          f"{failed['parent']}, change {failed['change']}")
    verdicts = {}
    if complete:
        print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
              f"{'delta':>8} {'wins':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [run["parent"]["result"]["metrics"][name]["value"] for run in complete]
            change = [run["change"]["result"]["metrics"][name]["value"] for run in complete]
            v = verdict(parent, change, metric["better"], metric["bound"])
            verdicts[name] = v
            p, c = v["parent"], v["change"]
            delta = (c["median"] - p["median"]) / p["median"] if p["median"] else float("nan")
            wins = f"{v['wins']}/{len(complete)}"
            print(f"{name:<12} {describe(p):>30} {describe(c):>30} {delta:>+8.1%} {wins:>6}  "
                  f"{v['verdict']}")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "failed": failed, "verdicts": verdicts}, handle, indent=1)
    regressed = any(v["verdict"] == "regression" for v in verdicts.values())
    return 1 if regressed or failed["change"] > failed["parent"] or not complete else 0


if __name__ == "__main__":
    sys.exit(main())
