"""Cluster disturbances and the scripts that schedule them.

The paper's failures "were not injected but part of the everyday operation
of the systems"; ours are *scripted* so runs are reproducible. Every
disturbance a cluster can suffer is one row of :data:`DISTURBANCES`,
keyed by its fault-plan category: the row turns the plan's parameters
into a ``(start, stop)`` pair. A :class:`ScenarioScript` schedules both
halves of a row at absolute simulated times and annotates each — the
numbered event markers of Figures 5 and 6; a chaos campaign
(:mod:`repro.faults.chaos`) schedules the same halves from a
:class:`~repro.faults.plan.FaultPlan`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .environment import SimulatedCluster

DAY = 86400.0
HOUR = 3600.0


def _nodes_down(cluster: SimulatedCluster, names: Sequence[str]):
    """Crash ``names`` / restore them. Disturbances may overlap, so a
    start takes down only the nodes still up (False if none is) and a
    stop brings back only the ones still down."""
    def start():
        up = [name for name in names if cluster.nodes[name].up]
        for name in up:
            cluster.crash_node(name)
        return bool(up)

    def stop():
        for name in names:
            if not cluster.nodes[name].up:
                cluster.restore_node(name)

    return start, stop


def cut(open_cut: Callable[[], int], heal: Callable[[int], None]):
    """Open a partition with ``open_cut``; heal the id it returned."""
    opened: List[int] = []

    def stop():
        if opened:
            heal(opened.pop())

    return (lambda: opened.append(open_cut())), stop


def _busy(cluster: SimulatedCluster, names: Sequence[str],
          fraction: float):
    """Other users occupy ``fraction`` of each named node's CPUs."""
    def start():
        for name in names:
            cluster.set_external_load(
                name, cluster.nodes[name].cpus * fraction)

    def stop():
        for name in names:
            cluster.set_external_load(name, 0.0)

    return start, stop


#: plan category -> ``(cluster, params) -> (start, stop)``. A start that
#: finds nothing to act on returns False (a chaos campaign books a
#: category when its start acts); every other start returns None.
DISTURBANCES: Dict[str, Callable[[SimulatedCluster, Dict],
                                 Tuple[Callable, Callable]]] = {
    "node-crash": lambda c, p: _nodes_down(c, [p["node"]]),
    "mass-failure": lambda c, p: _nodes_down(c, p["nodes"]),
    # a partition of every node, healed on its own: nodes rejoin by
    # announcing themselves, so one still behind another cut stays out
    "network-outage": lambda c, p: cut(c.start_partition, c.heal_partition),
    "storage-full": lambda c, p: (partial(c.set_storage_full, True),
                                  partial(c.set_storage_full, False)),
    "io-error-burst": lambda c, p: (
        partial(c.set_job_failure_rate, p["rate"]),
        partial(c.set_job_failure_rate, 0.0)),
    "load-burst": lambda c, p: _busy(c, p["nodes"], p["load_fraction"]),
    "partition": lambda c, p: cut(
        partial(c.start_partition, p["nodes"],
                direction=p.get("direction", "both")),
        c.heal_partition),
    "net-loss": lambda c, p: (
        partial(c.set_link_loss, "*", "*", p["rate"]),
        partial(c.set_link_loss, "*", "*", 0.0)),
    "net-duplicate": lambda c, p: (partial(c.set_duplication, p["rate"]),
                                   partial(c.set_duplication, 0.0)),
    "net-reorder": lambda c, p: (
        partial(c.set_reordering, p["rate"], p.get("extra", 1.0)),
        partial(c.set_reordering, 0.0)),
}


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

    def disturb(self, category: str, time: float, duration: float,
                label: str, over_label: str = "", **params: Any) -> None:
        """Schedule both halves of the :data:`DISTURBANCES` row
        ``category``: its start at ``time``, its stop ``duration`` later
        (annotated ``over_label``, by default ``"<label> over"``)."""
        start, stop = DISTURBANCES[category](self.cluster, params)
        self.at(time, label, start)
        self.at(time + duration, over_label or f"{label} over", stop)

    # -- convenience wrappers -------------------------------------------------

    def node_crash(self, time: float, node: str, duration: float,
                   label: str = "") -> None:
        label = label or f"node {node} failure"
        self.disturb("node-crash", time, duration, label,
                     f"{label} repaired", node=node)

    def mass_failure(self, time: float, nodes: Sequence[str],
                     duration: float, label: str = "cluster failure") -> None:
        self.disturb("mass-failure", time, duration, label, nodes=nodes)

    def network_outage(self, time: float, duration: float,
                       label: str = "network outage") -> None:
        self.disturb("network-outage", time, duration, label)

    def storage_full(self, time: float, duration: float,
                     label: str = "disk space shortage") -> None:
        self.disturb("storage-full", time, duration, label,
                     "disk space freed")

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
        self.disturb("load-burst", time, duration, label, nodes=nodes,
                     load_fraction=load_fraction)

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
