"""Replay the driver's acceptance protocol against the benchmark's own bounds.

Two sets; in each, every workload runs once per seed 0-9 with ``--trace 0``
in a fresh subprocess (waited for, none left running). Per workload and
end-to-end metric the report gives both sets' medians, the quartile spread
of each set as a share of its median (``statistics.quantiles(..., n=4)``),
and how much worse the second median is than the first, beside the bound
from BENCHMARK.json. A spread (``setup_s`` excepted, as the driver excepts
it) or a difference beyond its bound fails the check, and so does a run
that breaks one of the issue's floors: ``setup_s`` >= 1 s, at least 3 units,
a timed region >= 15 s, op counts within 2 % of their mean across seeds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             smoke: bool) -> Dict:
    """One benchmark invocation; returns its result line and envelope."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=REPO, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(argv)} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["envelope"] = next(
        json.loads(line[len("envelope: "):]) for line in lines
        if line.startswith("envelope: "))
    return result


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def report_row(workload: str, name: str, values: List[List[float]],
               bound, gated: bool):
    """Print one row of the report; returns medians, spreads and how much
    worse (lower is better) the second median is than the first."""
    medians = [statistics.median(column) for column in values]
    spreads = [spread(column) for column in values]
    worse = (medians[1] - medians[0]) / medians[0]
    print(f"{workload:<18}{name:<16}{medians[0]:>12.4f}{medians[1]:>12.4f}"
          f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{worse:>+9.3f}"
          + (f"{bound:>7.2f}" if bound is not None else f"{'-':>7}")
          + ("" if gated else "  (not gated)" if bound is None
             else "  (spread not gated)"))
    return medians, spreads, worse


def main(smoke: bool = False) -> int:
    """Run both sets, print the report, return the exit code."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seeds = range(2) if smoke else range(10)
    seconds = 0 if smoke else spec["run_seconds"]
    failures: List[str] = []
    started = time.time()
    #: set -> workload -> list of results, in seed order.
    sets: List[Dict[str, List[Dict]]] = []
    for set_index in range(2):
        results: Dict[str, List[Dict]] = {}
        for workload in (entry["name"] for entry in spec["workloads"]):
            for seed in seeds:
                result = run_once(spec["command"], workload, seed, seconds,
                                  smoke)
                results.setdefault(workload, []).append(result)
                envelope = result["envelope"]
                walls = " ".join(f"{unit['wall_s']:.2f}"
                                 for unit in envelope["units"])
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"setup {result['metrics']['setup_s']['value']:.2f} s"
                      f", units [{walls}] s, ops "
                      f"{envelope['warm_up']['ops']}, load "
                      f"{envelope['loadavg1_start']:.2f}->"
                      f"{envelope['loadavg1_end']:.2f}", flush=True)
                label = f"set {set_index + 1} {workload} seed {seed}"
                if not result["correct"] or result["failed"]:
                    failures.append(f"{label}: incorrect or failed ops")
                if smoke:
                    continue
                if result["metrics"]["setup_s"]["value"] < 1.0:
                    failures.append(f"{label}: setup_s below 1 s")
                if envelope["units_timed"] < 3:
                    failures.append(f"{label}: fewer than 3 units")
                if envelope["timed_region_s"] < 15.0:
                    failures.append(f"{label}: timed region below 15 s")
        sets.append(results)

    print()
    print(f"{'workload':<18}{'metric':<16}{'median 1':>12}{'median 2':>12}"
          f"{'spread 1':>10}{'spread 2':>10}{'2 vs 1':>9}{'bound':>7}")
    for workload in sets[0]:
        ops = [result["envelope"]["warm_up"]["ops"]
               for results in sets for result in results[workload]]
        mean = statistics.fmean(ops)
        if max(abs(count - mean) for count in ops) > 0.02 * mean:
            failures.append(f"{workload}: op counts {min(ops)}..{max(ops)} "
                            f"stray more than 2 % from their mean")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[result["metrics"][name]["value"]
                       for result in results[workload]] for results in sets]
            if any(value <= 0 for column in values for value in column):
                failures.append(f"{workload} {name}: a value is not "
                                f"positive")
            # Every end-to-end metric is lower-is-better.
            medians, spreads, worse = report_row(workload, name, values,
                                                 bound, name != "setup_s")
            if smoke:
                continue
            for set_index, value in enumerate(spreads):
                if name != "setup_s" and value > bound:
                    failures.append(
                        f"{workload} {name}: spread {value:.3f} of set "
                        f"{set_index + 1} exceeds the bound {bound}")
            if worse > bound:
                failures.append(
                    f"{workload} {name}: second median is {worse:+.3f} "
                    f"worse than the first, bound {bound}")
        # For information: the two timings before division by the host's
        # slowness, as the units' raw rows in the envelope give them.
        report_row(workload, "raw setup", [
            [result["envelope"]["setup_raw_s"] for result in results[workload]]
            for results in sets], None, False)
        report_row(workload, "raw us/op", [
            [statistics.median(1e6 * unit["wall_s"] / unit["ops"]
                               for unit in result["envelope"]["units"])
             for result in results[workload]] for results in sets],
            None, False)
    print()
    print(f"{sum(len(r) for s in sets for r in s.values())} runs in "
          f"{time.time() - started:.0f} s")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selfcheck: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0

