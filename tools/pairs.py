#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, judged by the §8 rule.

Builds the repository benchmark (`perfbench/`) once at each of two git
revisions, each exported with `git archive` into a temporary directory of
its own, then runs every workload asked for in N pairs, alternating which
side goes first. Prints every run and, per workload, each end-to-end
metric's median, quartiles and win count, each side's share of failed
operations, and for each metric one verdict:

    gain        the change wins at least nine tenths of the pairs (ties
                count for neither side), the medians differ in the
                metric's better direction by more than the parent's
                interquartile range, and no larger share of the change's
                operations fails than of the parent's;
    worse       the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
    unresolved  neither, and the parent's interquartile range is wider
                than the bound, unless every run of the change reads
                better than every run of the parent;
    unchanged   neither, within the bound.

    tools/pairs.py PARENT CHANGE --workload batch_verify [--workload ...]
                   [--pairs 10] [--seconds 24] [--seed 1] [--metric ops_per_s]

Each run's line also shows the host's CPU steal while it ran (`steal`, in
clock ticks of the `cpu` line of /proc/stat, read before and after the
benchmark process), and each workload's summary each side's median steal:
on a shared host a run that lost CPU to other guests reads slower without
doing more work. Verdicts are on the raw numbers, steal or not.

`--workload` repeats; `all` is every workload in BENCHMARK.json. The last
line is `no regression` when no metric of any workload reads `worse`,
otherwise every worse metric × workload pair. PARENT and CHANGE are anything `git rev-parse` takes; `.` is the working
tree as it is, uncommitted edits included. Metric names, their better
direction, their bounds and the default run length come from
`BENCHMARK.json` of the working tree. Python 3 standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, into):
    """The tree of `rev` under `into`, or the working tree for `.`."""
    if rev == ".":
        return ROOT
    os.makedirs(into)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def build(tree):
    """The benchmark binary of `tree`, built in release."""
    manifest = os.path.join(tree, "perfbench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        check=True,
    )
    return os.path.join(tree, "perfbench", "target", "release", "benchmark")


def steal_ticks():
    """The host's CPU steal so far, in clock ticks: the `steal` field of
    the `cpu` line of /proc/stat (0 where there is none)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def run(binary, workload, seed, seconds):
    """One run's result object: the last line the benchmark prints, and
    the host's CPU steal while it ran."""
    before = steal_ticks()
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    steal = steal_ticks() - before
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{binary}: no output (exit {out.returncode})")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "steal": steal,
    }


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(runs):
    """Failed operations over attempted ones, across `runs`."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(parent, change, sign, bound, more_failures):
    """The verdict on one metric's paired runs (module docs), and its wins."""
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if wins * 10 >= 9 * len(parent) and gain > p3 - p1 and not more_failures:
        return "gain", wins
    if gain < -bound * abs(pm):
        return "worse", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def judge(workload, runs, judged, better, bounds, args, seconds):
    """Prints one workload's table; returns the metrics that read worse."""
    print()
    print(f"{workload}, {args.pairs} pairs of {seconds:g} s, seed {args.seed}")
    print(f"{'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'wins':>7s}  verdict")
    shares = {side: failed_share(runs[side]) for side in runs}
    more_failures = shares["change"] > shares["parent"]
    worse = []
    for name in judged:
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = 1 if better[name] == "higher" else -1
        judged_as, wins = verdict(parent, change, sign, bounds[name], more_failures)
        if judged_as == "worse":
            worse.append(name)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        moved = f" ({(cm - pm) / pm:+.1%})" if pm else ""
        print(f"{name:14s} {pm:12.4g} [{p1:.4g}, {p3:.4g}]".ljust(49)
              + f" {cm:12.4g} [{c1:.4g}, {c3:.4g}]".ljust(35)
              + f" {wins:3d}/{len(parent):<3d}  {judged_as}{moved}")
    incorrect = {side: sum(not r["correct"] for r in runs[side]) for side in runs}
    print(f"failed share: parent {shares['parent']:.3g}, change {shares['change']:.3g}"
          + ("  (more failures: no gain)" if more_failures else "")
          + f"; incorrect runs: parent {incorrect['parent']}, change {incorrect['change']}")
    steal = {side: statistics.median(r["steal"] for r in runs[side]) for side in runs}
    print(f"steal ticks, median: parent {steal['parent']:g}, change {steal['change']:g}")
    return worse


def pair_count(text):
    """`--pairs`: quartiles need two runs a side, so at least two pairs."""
    try:
        pairs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"at least 2 pairs are needed for quartiles, got {pairs}")
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json, or all (repeatable)")
    parser.add_argument("--pairs", type=pair_count, default=10,
                        help="pairs of runs per workload, at least 2 (default 10)")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--metric", action="append",
                        help="judge only this end-to-end metric (repeatable)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    judged = args.metric or list(better)
    for name in judged:
        if name not in better:
            sys.exit(f"unknown end-to-end metric {name}; BENCHMARK.json has {list(better)}")
    known = [w["name"] for w in bench["workloads"]]
    workloads = []
    for name in args.workload:
        for workload in known if name == "all" else [name]:
            if workload not in known:
                sys.exit(f"unknown workload {workload}; BENCHMARK.json has {known}")
            if workload not in workloads:
                workloads.append(workload)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        binaries = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            tree = export(rev, os.path.join(scratch, side))
            print(f"building {side} ({rev}) ...", flush=True)
            binaries[side] = build(tree)

        for workload in workloads:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run(binaries[side], workload, args.seed, seconds)
                    runs[workload][side].append(result)
                    shown = " ".join(f"{k}={result['metrics'][k]:.4g}" for k in judged)
                    flag = "" if result["correct"] else f"  INCORRECT ({result['failed']:.0f} failed)"
                    print(f"{workload} pair {pair + 1:2d} {side:6s} {shown} steal={result['steal']}"
                          f"{flag}", flush=True)

    worse = []
    for workload in workloads:
        worse += [f"{name} x {workload}"
                  for name in judge(workload, runs[workload], judged, better, bounds, args, seconds)]
    print()
    print("no regression" if not worse else "worse: " + ", ".join(worse))


if __name__ == "__main__":
    main()
