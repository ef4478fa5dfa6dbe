"""Cross-check the traced ledger against cProfile on one workload.

One unit runs under ``cProfile`` and one under the ledger's wrappers; the
report puts each layer's share of ``tottime`` beside its share of the
traced wall and flags a difference of more than five points. The two
views are not the same thing and a flag is a prompt to look, not a
failure: cProfile bills a function to the module that defines it, the
ledger bills it to the entry point it was reached through (so
``instance.py`` code run from ``BioOperaServer.emit`` is ``navigator +
instance`` here and ``server`` there), and both inflate short calls.
Time in the standard library and builtins is passed up to the ``repro``
callers it was spent for.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import tempfile
from collections import defaultdict
from typing import Dict, Optional

import ledger
import units

#: first match wins; paths are matched as substrings of the file name.
MODULE_LAYERS = (
    ("repro/bio/", "bio"),
    ("repro/processes/", "bio"),
    ("repro/core/engine/library.py", "bio"),
    ("repro/core/engine/navigator.py", "navigator+instance"),
    ("repro/core/engine/instance.py", "navigator+instance"),
    ("repro/core/model/", "navigator+instance"),
    ("repro/core/engine/server.py", "server"),
    ("repro/core/engine/events.py", "server"),
    ("repro/core/engine/dispatcher.py", "dispatcher"),
    ("repro/core/engine/scheduler.py", "dispatcher"),
    ("repro/core/monitor/awareness.py", "dispatcher"),
    ("repro/cluster/simulation.py", "sim"),
    ("repro/cluster/network.py", "network"),
    ("repro/cluster/pec.py", "pec"),
    ("repro/core/monitor/adaptive.py", "pec"),
    ("repro/cluster/", "env"),
    ("repro/store/codec.py", "codec"),
    ("repro/store/wal.py", "wal"),
    ("repro/store/kvstore.py", "kv"),
    ("repro/store/snapshot.py", "kv"),
    ("repro/store/spaces.py", "spaces"),
    ("repro/store/lineage.py", "prov"),
    ("repro/obs/", "obs"),
    ("repro/prov/", "prov"),
    ("repro/shard/broker.py", "broker"),
    ("repro/shard/plane.py", "shard"),
    ("repro/shard/router.py", "router"),
    ("repro/shard/console.py", "console"),
    ("repro/core/engine/operator_console.py", "console"),
    ("repro/core/monitor/queries.py", "queries"),
    ("repro/workloads/", "harness"),
    ("benchmarks/e2e/", "harness"),
)

#: ledger layers merged to match the module view above.
LEDGER_MERGE = {"navigator": "navigator+instance",
                "instance": "navigator+instance"}


def layer_of(function) -> Optional[str]:
    """Layer of a pstats function key, or None for non-``repro`` code."""
    filename = function[0].replace(os.sep, "/")
    for fragment, layer in MODULE_LAYERS:
        if fragment in filename:
            return layer
    return None


def profile_shares(stats: Dict) -> Dict[str, float]:
    """Share of total ``tottime`` per layer from raw pstats entries."""
    memo: Dict = {}

    def owners(function, depth: int) -> Dict[str, float]:
        """Layers a non-repro function's time belongs to, by its callers'
        time in it (followed upwards until repro code is reached)."""
        layer = layer_of(function)
        if layer is not None:
            return {layer: 1.0}
        if function in memo:
            return memo[function]
        memo[function] = {"other": 1.0}  # breaks cycles
        callers = stats[function][4]
        total = sum(entry[2] for entry in callers.values())
        if callers and total > 0 and depth < 25:
            split: Dict[str, float] = defaultdict(float)
            for caller, entry in callers.items():
                for name, fraction in owners(caller, depth + 1).items():
                    split[name] += fraction * entry[2] / total
            memo[function] = dict(split)
        return memo[function]

    seconds: Dict[str, float] = defaultdict(float)
    for function, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(function)
        if layer is not None:
            seconds[layer] += tottime
        elif not callers:
            seconds["other"] += tottime
        else:
            for caller, entry in callers.items():
                for name, fraction in owners(caller, 0).items():
                    seconds[name] += fraction * entry[2]
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}


def measure(workload):
    """One unit under cProfile and one under the ledger's wrappers."""
    workload.setup()
    workload.warm_up()

    gc.collect()
    profiler = cProfile.Profile()
    state = profiler.runcall(workload.run)
    problems = list(workload.check(state).problems)
    del state
    profiled = profile_shares(pstats.Stats(profiler).stats)

    tracer = ledger.Tracer()
    gc.collect()
    state = tracer.trace(workload.run)
    problems += workload.check(state).problems
    return profiled, tracer, problems


def main(workload_name: str, seed: int, smoke: bool) -> int:
    """Profile one unit, trace one unit, print the comparison."""
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as work_dir:
        workload = units.WORKLOADS[workload_name](seed, smoke, work_dir)
        try:
            profiled, tracer, problems = measure(workload)
        finally:
            workload.close()

    book = ledger.Ledger(tracer)
    traced: Dict[str, float] = defaultdict(float)
    for layer, seconds in book.layer_self_s().items():
        traced[LEDGER_MERGE.get(layer, layer)] += seconds / book.wall_s

    print(f"{workload_name} seed {seed}: share of one unit per layer")
    print(f"{'layer':<22}{'cProfile':>10}{'ledger':>10}{'diff':>8}")
    flagged = 0
    for layer in sorted(set(profiled) | set(traced),
                        key=lambda name: -max(profiled.get(name, 0.0),
                                              traced.get(name, 0.0))):
        ours, theirs = traced.get(layer, 0.0), profiled.get(layer, 0.0)
        points = 100 * (ours - theirs)
        flag = "  <-- differs by more than 5 points" if abs(points) > 5 else ""
        flagged += bool(flag)
        print(f"{layer:<22}{100 * theirs:>9.1f}%{100 * ours:>9.1f}%"
              f"{points:>+8.1f}{flag}")
    print(f"{flagged} layer(s) flagged; 'harness' is what no entry point "
          f"covers, 'other' what no repro caller claims")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return 1 if problems else 0
