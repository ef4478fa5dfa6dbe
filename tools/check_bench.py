#!/usr/bin/env python3
"""Compare the working tree with a parent checkout on the repo's benchmark.

Reads ``command``, ``workloads``, the ``end_to_end`` bounds and
``run_seconds`` from ``BENCHMARK.json``, then for every workload runs
parent and working tree as interleaved pairs — one pair per seed 1..N,
the side that goes first alternating with the seed — each run in its own
checkout with ``--trace 0``. Every run is printed as it ends; the table
after them gives, per workload x end-to-end metric, both medians, the
parent's inter-quartile range, wins/pairs and a verdict:

* ``regression`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``gain`` — of at least ten pairs the change wins nine tenths (ties count
  for neither side) and the medians differ by more than the parent's IQR;
* ``unresolved`` — the run-to-run spread (IQR / median, the wider side)
  exceeds the bound and not every run of the change beats every run of
  the parent: the runs cannot show "unchanged";
* ``within bound`` — none of the above.

Exit code 1 on a regression, on a larger share of failed operations than
the parent's, or on a run of the change that printed no correct result.

Usage::

    python tools/check_bench.py --parent /root/scratch/parent \
        [--workload burst_plane]... [--pairs 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def median_and_iqr(values):
    """Median and inter-quartile range (inclusive method) of one side."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def verdict(parent, change, better, bound):
    """Judge one metric on one workload from the paired run values.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the relative
    worsening that counts as a regression. Returns the printed row:
    medians, parent IQR, wins, pairs and the verdict string.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent_med, parent_iqr = median_and_iqr(parent)
    change_med, change_iqr = median_and_iqr(change)
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    worse_by = sign * (change_med - parent_med)
    spread = max((iqr / abs(med) for med, iqr in
                  ((parent_med, parent_iqr), (change_med, change_iqr))
                  if med), default=0.0)
    every_run_better = (max(sign * c for c in change)
                        < min(sign * p for p in parent))
    if worse_by > bound * abs(parent_med):
        result = "regression"
    elif (len(parent) >= 10 and wins >= 0.9 * len(parent)
          and -worse_by > parent_iqr):
        result = "gain"
    elif spread > bound and not every_run_better:
        result = "unresolved"
    else:
        result = "within bound"
    return {"parent_median": parent_med, "change_median": change_med,
            "parent_iqr": parent_iqr, "wins": wins, "pairs": len(parent),
            "verdict": result}


def run_once(checkout, command, workload, seed, seconds):
    """One benchmark invocation in ``checkout``; returns its result line
    (the last line of stdout, parsed), or None if there was none."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main(argv=None):
    """Run the pairs, print every run and the verdict table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs per workload")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    known = [entry["name"] for entry in bench["workloads"]]
    workloads = args.workload or known
    for name in workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r} (one of {known})")
    sides = {"parent": os.path.abspath(args.parent), "change": REPO}

    failed = False
    rows = []
    for workload in workloads:
        values = {side: {m["name"]: [] for m in bench["end_to_end"]}
                  for side in sides}
        ops = {side: [0, 0] for side in sides}      # failed, attempted
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {side: run_once(sides[side], bench["command"], workload,
                                   seed, bench["run_seconds"])
                    for side in order}
            missing = [side for side in sides
                       if pair[side] is None or not pair[side]["correct"]]
            if missing:
                # Dropped whole, so values stay paired by index.
                print(f"{workload} seed {seed}: NO CORRECT RESULT from "
                      f"{' and '.join(missing)}; pair dropped", flush=True)
                failed = failed or "change" in missing
                continue
            for side in sides:
                result = pair[side]
                ops[side][0] += result["failed"]
                ops[side][1] += result["attempted"]
                shown = []
                for name, series in values[side].items():
                    series.append(result["metrics"][name]["value"])
                    shown.append(f"{name}={series[-1]:.6g}")
                print(f"{workload} seed {seed} {side}: {' '.join(shown)} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
        share = {side: f / a if a else 0.0 for side, (f, a) in ops.items()}
        if share["change"] > share["parent"]:
            failed = True
        for metric in bench["end_to_end"]:
            parent = values["parent"][metric["name"]]
            change = values["change"][metric["name"]]
            if not parent:
                continue    # every pair was dropped; already reported
            row = verdict(parent, change, metric["better"], metric["bound"])
            failed = failed or row["verdict"] == "regression"
            rows.append((workload, metric, row, ops))

    print()
    print("| workload | metric | parent median | change median | delta "
          "| parent IQR | wins/pairs | bound | verdict | failed ops "
          "parent, change |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload, metric, row, ops in rows:
        delta = (100.0 * (row["change_median"] - row["parent_median"])
                 / row["parent_median"]) if row["parent_median"] else 0.0
        print(f"| {workload} | {metric['name']} ({metric['unit']}) "
              f"| {row['parent_median']:.6g} | {row['change_median']:.6g} "
              f"| {delta:+.1f} % | {row['parent_iqr']:.3g} "
              f"| {row['wins']}/{row['pairs']} | {metric['bound']:.0%} "
              f"| {row['verdict']} "
              f"| {ops['parent'][0]}/{ops['parent'][1]}, "
              f"{ops['change'][0]}/{ops['change'][1]} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
