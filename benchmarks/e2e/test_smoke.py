"""Functional check of the end-to-end harness at ``--smoke`` sizes.

Run as ``python -m pytest benchmarks/e2e -q`` (tier-1's ``testpaths`` does
not collect this directory). Every invocation is a real subprocess of
``run.py``, as the driver makes it; nothing here measures anything.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
_runs = {}


def smoke_run(workload, seed, trace, repeat=0):
    """One cached ``--smoke`` invocation: printed metrics, envelope and
    result line. ``repeat`` tells two runs of one seed apart."""
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        done = subprocess.run(
            SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                               "--trace", str(trace), "--smoke"],
            cwd=REPO, capture_output=True, text=True, timeout=180)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        lines = done.stdout.strip().splitlines()
        printed = dict(
            (match.group(1), (match.group(2), match.group(3)))
            for match in (re.fullmatch(r"(\S+) = (\S+) (\S+)", line)
                          for line in lines) if match)
        envelope = next(json.loads(line[len("envelope: "):])
                        for line in lines if line.startswith("envelope: "))
        _runs[key] = printed, envelope, json.loads(lines[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_positive(workload):
    printed, envelope, result = smoke_run(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and entry["value"] > 0
        assert printed[metric["name"]][1] == metric["unit"]
    assert envelope["units_timed"] >= 3
    for unit in envelope["units"]:
        assert unit["ops"] == envelope["warm_up"]["ops"] > 0
        assert unit["digest"] == envelope["warm_up"]["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed_with_units(workload):
    printed, _envelope, result = smoke_run(workload, 1, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]][1] == metric["unit"]
    # The ledger must account for the traced wall (ROADMAP: >= 90 %).
    assert result["metrics"]["harness.attributed_fraction"]["value"] >= 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly_and_another_seed_differs(workload):
    _p, first, _r = smoke_run(workload, 1, 0)
    _p, again, _r = smoke_run(workload, 1, 0, repeat=1)
    _p, other, _r = smoke_run(workload, 2, 0)
    for key in ("warm_up", "sim"):
        assert first[key] == again[key]
    assert first.get("event_log_digest") == again.get("event_log_digest")
    assert first["warm_up"]["digest"] != other["warm_up"]["digest"]
    # Exact per-layer counts repeat too (times do not).
    _p, _e, traced = smoke_run(workload, 1, 1)
    _p, _e, traced_again = smoke_run(workload, 1, 1, repeat=1)
    for metric in SPEC["per_layer"]:
        if (metric["unit"] in ("count", "bytes")
                and not metric["name"].startswith("harness.")):
            assert (traced["metrics"][metric["name"]]
                    == traced_again["metrics"][metric["name"]]), metric


def test_benchmark_json_names_are_the_names_the_harness_emits():
    paths = [HERE, os.path.join(REPO, "src")]  # ledger imports repro
    sys.path[:0] = paths
    try:
        import ledger
    finally:
        del sys.path[:len(paths)]
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == list(ledger.PER_LAYER))
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py must refuse."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (target / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "burst_plane", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
