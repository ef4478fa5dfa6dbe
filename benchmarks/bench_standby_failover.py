"""E1 — a shard fails over by itself (the paper's future-work backup).

"We intend to provide a backup architecture for the BioOpera server so
that if a server fails or requires maintenance, the backup can assume
control and continue execution smoothly" (Conclusions). The benchmark
runs one all-vs-all on a one-shard plane whose server crashes mid-run
and measures what the broker's failure detector buys. Both rows are the
same detector, which promotes the shard once it has been silent for
``takeover_after`` seconds: 60 s is the plane's default, and 1 800 s
models an operator who notices and restarts the server in ~30 min (the
paper's event 2 took manual attention).
"""

from repro.bio import DarwinEngine, DatabaseProfile
from repro.cluster import SimKernel
from repro.core.engine import ProgramRegistry
from repro.processes.activities import register_all_vs_all_programs
from repro.processes.all_vs_all import (build_align_chunk_template,
                                        build_all_vs_all_template)
from repro.shard import ShardedControlPlane
from repro.workloads.reporting import format_table

from .conftest import cached

OPERATOR_REACTION = 1800.0    # a watchful operator restarts in ~30 min
DETECTOR = 60.0               # the plane's takeover_after
CRASH_AT = 120.0


def _run(strategy: str, takeover_after: float, seed=71):
    profile = DatabaseProfile.synthetic("sbtest", 260, seed=19)
    darwin = DarwinEngine(profile, mode="modeled", random_match_rate=1e-3,
                          sample_cap=100, seed=11)
    registry = ProgramRegistry()
    register_all_vs_all_programs(registry, darwin)
    kernel = SimKernel(seed=seed)
    plane = ShardedControlPlane(
        kernel, shards=1, nodes_per_shard=4, cpus=2, seed=seed,
        registry=registry, takeover_after=takeover_after,
        templates=[build_align_chunk_template(),
                   build_all_vs_all_template()])
    request = plane.launch("lab", "all_vs_all", {
        "db_name": profile.name, "granularity": 16,
    })
    plane.drain_requests()
    kernel.schedule_at(CRASH_AT, plane.crash_shard, 0)
    plane.run_until(lambda: plane.instance(request.result).terminal)
    server = plane.shards[0].server
    assert server.instance(request.result).status == "completed"
    return {
        "strategy": strategy,
        "takeover_after": takeover_after,
        "wall": kernel.now,
        "takeovers": plane.broker.takeovers,
        "outputs": server.instance(request.result).outputs,
        "manual": server.metrics["manual_interventions"],
    }


def _compute():
    return [_run("operator restart", OPERATOR_REACTION),
            _run("failure detector", DETECTOR)]


def test_e1_standby_reduces_downtime(artifact):
    rows = cached("e1", _compute)
    operator, detector = rows
    table = format_table(
        ("recovery strategy", "takeover_after (s)", "WALL (s)",
         "takeovers"),
        [(r["strategy"], f"{r['takeover_after']:.0f}", f"{r['wall']:.0f}",
          r["takeovers"]) for r in rows],
    )
    artifact("e1_standby_failover", table)
    # the detector saves most of the operator-reaction window
    assert detector["wall"] < operator["wall"] - 0.5 * OPERATOR_REACTION
    assert detector["takeovers"] == operator["takeovers"] == 1
    # and both compute the same results hands-free
    assert detector["outputs"] == operator["outputs"]
    assert detector["manual"] == operator["manual"] == 0
