#!/usr/bin/env python3
"""Paired benchmark comparison of two checkouts.

    python3 tools/perf_pairs.py --parent DIR --change DIR --workload NAME
        [--seed N] [--seconds S] [--pairs N] [--trace 0|1] [--claim METRIC]

Runs `perfbench/run.py` from the parent checkout and from the change
checkout in N pairs at one workload, seed and run length, alternating which
side runs first (pair 0 runs the parent first, pair 1 the change, and so
on). For every metric the runs report it prints each side's median and
quartiles, the change-to-parent ratio of the medians, how many pairs the
change won (ties count for neither side) and a verdict:

  better    the change won at least 9/10 of the pairs and its median beats
            the parent's by more than the parent's interquartile range;
  worse     the same rule with the sides swapped;
  identical every run of both sides read the same value;
  unclear   none of these.

A metric's direction (`better: lower|higher`) comes from the change
checkout's BENCHMARK.json; metrics it does not list are taken as
lower-is-better. Exit status: 0, or 1 when a run fails or reports a failed
operation or `correct: false`, or 3 when --claim names a metric whose
verdict is not `better`. Each checkout builds its own benchmark the first
time it runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        raise RuntimeError(f"{checkout}: run reported correct={result.get('correct')} "
                           f"failed={result.get('failed')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def directions(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for section in ("end_to_end", "per_layer"):
        for m in spec.get(section, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(parent, change, higher_is_better):
    """Returns (wins, pairs, verdict) for one metric's paired samples."""
    if len(set(parent) | set(change)) == 1:
        return 0, len(parent), "identical"
    sign = 1 if higher_is_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    q1, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    if wins >= WIN_SHARE * pairs and gap > q3 - q1:
        return wins, pairs, "better"
    if losses >= WIN_SHARE * pairs and -gap > q3 - q1:
        return wins, pairs, "worse"
    return wins, pairs, "unclear"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit's checkout")
    ap.add_argument("--change", required=True, help="change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", help="metric that must read `better` (else exit 3)")
    args = ap.parse_args(argv[1:])
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    samples = {"parent": [], "change": []}
    try:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                samples[side].append(run_once(sides[side], args))
            print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        return 1

    better = directions(sides["change"])
    names = [n for n in samples["parent"][0] if all(n in s for s in samples["change"])]
    print(f"{args.workload}, seed {args.seed}, {args.seconds} s, {args.pairs} pairs, "
          f"trace {args.trace}")
    print(f"{'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'ratio':>7} {'wins':>6}  verdict")
    verdicts = {}
    for name in names:
        p = [s[name] for s in samples["parent"]]
        c = [s[name] for s in samples["change"]]
        wins, pairs, v = verdict(p, c, better.get(name, "lower") == "higher")
        verdicts[name] = v
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        ratio = f"{cm / pm:.3f}" if pm else "-"
        print(f"{name:<18} {pm:>12.6g} [{pq[0]:.6g}, {pq[1]:.6g}]".ljust(53) +
              f" {cm:>12.6g} [{cq[0]:.6g}, {cq[1]:.6g}]".ljust(35) +
              f" {ratio:>7} {wins:>3}/{pairs:<2}  {v}")
    if args.claim is not None and verdicts.get(args.claim) != "better":
        print(f"claim on {args.claim} not shown: {verdicts.get(args.claim, 'not reported')}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
