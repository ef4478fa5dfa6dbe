"""Scenario scripting: scheduled failures, load patterns, and operations.

The paper's failures "were not injected but part of the everyday operation
of the systems"; ours are *scripted* so runs are reproducible. A
:class:`ScenarioScript` schedules cluster operations at absolute simulated
times and records an annotation for each — the numbered event markers of
Figures 5 and 6.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from .environment import SimulatedCluster

DAY = 86400.0
HOUR = 3600.0


class ScenarioScript:
    """Schedules labelled operations against a simulated cluster."""

    def __init__(self, cluster: SimulatedCluster):
        self.cluster = cluster
        self.kernel = cluster.kernel

    def at(self, time: float, label: str, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at simulated ``time`` and annotate the trace."""
        def wrapper():
            self.cluster.trace.annotate(label)
            fn(*args)

        self.kernel.schedule_at(time, wrapper, label=label)

    # -- convenience wrappers -------------------------------------------------

    def node_crash(self, time: float, node: str, duration: float,
                   label: str = "") -> None:
        label = label or f"node {node} failure"
        self.at(time, label, self.cluster.crash_node, node)
        self.at(time + duration, f"{label} repaired",
                self.cluster.restore_node, node)

    def mass_failure(self, time: float, nodes: Sequence[str],
                     duration: float, label: str = "cluster failure") -> None:
        def crash_all():
            for node in nodes:
                self.cluster.crash_node(node)

        def restore_all():
            for node in nodes:
                self.cluster.restore_node(node)

        self.at(time, label, crash_all)
        self.at(time + duration, f"{label} over", restore_all)

    def network_outage(self, time: float, duration: float,
                       label: str = "network outage") -> None:
        self.at(time, label, self.cluster.start_network_outage)
        self.at(time + duration, f"{label} over",
                self.cluster.end_network_outage)

    def storage_full(self, time: float, duration: float,
                     label: str = "disk space shortage") -> None:
        self.at(time, label, self.cluster.set_storage_full, True)
        self.at(time + duration, "disk space freed",
                self.cluster.set_storage_full, False)

    def server_crash(self, time: float, recovery_after: float,
                     label: str = "server crash",
                     recovery_label: str = "server recovered") -> None:
        self.at(time, label, self.cluster.crash_server)
        self.at(time + recovery_after, recovery_label,
                self.cluster.recover_server)

    def upgrade_all(self, time: float, cpus: Optional[int] = None,
                    speed: Optional[float] = None,
                    label: str = "hardware upgrade") -> None:
        def upgrade():
            for node in sorted(self.cluster.nodes):
                self.cluster.upgrade_node(node, cpus=cpus, speed=speed)

        self.at(time, label, upgrade)

    def suspend_instance(self, time: float, instance_id: str,
                         label: str = "manual suspend") -> None:
        self.at(time, label,
                lambda: self.cluster.server.suspend(instance_id, label))

    def resume_instance(self, time: float, instance_id: str,
                        label: str = "manual resume") -> None:
        self.at(time, label,
                lambda: self.cluster.server.resume(instance_id))

    # -- external load patterns ---------------------------------------------------

    def load_burst(self, time: float, duration: float,
                   nodes: Sequence[str], load_fraction: float,
                   label: str = "cluster busy with other jobs") -> None:
        """Other users occupy ``load_fraction`` of each node's CPUs."""
        def start():
            for node in nodes:
                cpus = self.cluster.nodes[node].cpus
                self.cluster.set_external_load(node, cpus * load_fraction)

        def stop():
            for node in nodes:
                self.cluster.set_external_load(node, 0.0)

        self.at(time, label, start)
        self.at(time + duration, f"{label} over", stop)

    def background_load(self, start: float, end: float,
                        nodes: Sequence[str], mean_fraction: float,
                        change_every: float = 4 * HOUR,
                        seed_stream: str = "background-load") -> None:
        """Fluctuating everyday multi-user load on a shared cluster.

        Each node's external load is redrawn around ``mean_fraction`` every
        ``change_every`` seconds (exponential spacing), producing the
        plateaus-and-bursts profile adaptive monitoring exploits.
        """
        rng = self.kernel.rng(seed_stream)

        def redraw(node: str):
            if self.kernel.now >= end:
                self.cluster.set_external_load(node, 0.0)
                return
            node_obj = self.cluster.nodes[node]
            fraction = min(1.0, max(0.0, rng.gauss(mean_fraction,
                                                   mean_fraction / 2)))
            self.cluster.set_external_load(node, node_obj.cpus * fraction)
            self.kernel.schedule(rng.expovariate(1.0 / change_every),
                                 redraw, node, label=f"load:{node}")

        for node in nodes:
            self.kernel.schedule_at(
                start + rng.random() * change_every, redraw, node,
                label=f"load-start:{node}",
            )
