"""Awareness model: the server's view of the computing environment.

"Beyond task start times, task finish times and task failures, the system
also stores information regarding the load in each node, node availability,
node failure, node capacity... All together, this information allows the
creation of an awareness model which allows BioOpera to react to changes in
the computing environment" (paper, Section 3.4).

The :class:`AwarenessModel` is deliberately an *estimate*: external load is
whatever the adaptive monitors last reported, which may be stale — exactly
the situation behind the paper's scheduling-limitation discussion (Section
5.4) and our migration ablation.

Placement indexes
-----------------

Beyond the per-node registry, the model maintains two indexes for the
dispatch hot path:

* **per-placement-tag member sets** — ``candidates(tag)`` touches only the
  nodes carrying the tag instead of scanning the whole cluster;
* **capacity-event (dirty-tag) tracking** — every event that can *create*
  placement capacity (job release, node recovery, upgrade, registration)
  records the affected placement tags. The dispatcher drains this set to
  skip queue segments whose tags had no capacity change since the last
  pump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...errors import EngineError


@dataclass
class NodeView:
    """What the server currently believes about one node."""

    name: str
    cpus: int
    speed: float = 1.0
    tags: Tuple[str, ...] = ()
    up: bool = True
    #: excluded from placement after repeated job failures; cleared by a
    #: successful probe or the node rejoining.
    quarantined: bool = False
    external_load: float = 0.0     # CPUs' worth of non-BioOpera demand
    assigned: Set[str] = field(default_factory=set)  # job ids placed here
    last_report: float = 0.0

    @property
    def assigned_count(self) -> int:
        return len(self.assigned)

    def free_slots(self) -> int:
        """Slots not holding one of our jobs (hard placement bound)."""
        return max(0, self.cpus - self.assigned_count)

    def effective_free(self) -> float:
        """Estimated CPUs actually available: capacity minus external load
        minus our own assignments."""
        return max(0.0, self.cpus - self.external_load) - self.assigned_count


class AwarenessModel:
    """Mutable registry of node views, fed by PEC reports."""

    def __init__(self):
        self._nodes: Dict[str, NodeView] = {}
        #: placement tag -> node names carrying it ("" = every node).
        self._members: Dict[str, Set[str]] = {"": set()}
        #: tags whose capacity may have grown since the last drain.
        self._dirty_tags: Set[str] = set()
        #: optional MetricsRegistry (set by the server's observability
        #: hub); assignment changes publish per-node utilization gauges.
        self.metrics = None

    def register(self, name: str, cpus: int, speed: float = 1.0,
                 tags: Tuple[str, ...] = ()) -> NodeView:
        if name in self._nodes:
            self._drop_membership(self._nodes[name])
        view = NodeView(name=name, cpus=cpus, speed=speed, tags=tuple(tags))
        self._nodes[name] = view
        self._members[""].add(name)
        for tag in view.tags:
            self._members.setdefault(tag, set()).add(name)
        self._capacity_gained(view)
        return view

    def forget(self, name: str) -> None:
        view = self._nodes.pop(name, None)
        if view is None:
            return
        self._drop_membership(view)

    def _drop_membership(self, view: NodeView) -> None:
        self._members[""].discard(view.name)
        for tag in view.tags:
            members = self._members.get(tag)
            if members is not None:
                members.discard(view.name)

    def node(self, name: str) -> NodeView:
        view = self._nodes.get(name)
        if view is None:
            raise EngineError(f"awareness model has no node {name!r}")
        return view

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> List[NodeView]:
        return [self._nodes[name] for name in sorted(self._nodes)]

    # -- index maintenance ------------------------------------------------------

    def _capacity_gained(self, view: NodeView) -> None:
        """Mark ``view``'s placement tags dirty: an event that can create
        capacity (release, recovery, upgrade, registration) happened."""
        self._dirty_tags.add("")
        self._dirty_tags.update(view.tags)

    def drain_capacity_events(self) -> Set[str]:
        """Return (and clear) the placement tags that gained capacity since
        the previous drain. Consumed by ``Dispatcher.pump``."""
        dirty, self._dirty_tags = self._dirty_tags, set()
        return dirty

    # -- report ingestion -------------------------------------------------------

    def node_up(self, name: str, time: float = 0.0) -> None:
        view = self.node(name)
        view.up = True
        view.quarantined = False  # a rejoining node gets a clean slate
        view.last_report = time
        self._capacity_gained(view)

    def node_down(self, name: str, time: float = 0.0) -> List[str]:
        """Mark a node down; returns the job ids that were assigned to it."""
        view = self.node(name)
        view.up = False
        view.last_report = time
        orphans = sorted(view.assigned)
        view.assigned.clear()
        return orphans

    def load_report(self, name: str, external_load: float,
                    time: float = 0.0) -> None:
        view = self.node(name)
        view.external_load = max(0.0, float(external_load))
        view.last_report = time

    def reconfigure(self, name: str, cpus: Optional[int] = None,
                    speed: Optional[float] = None) -> None:
        """Hardware upgrade (the paper's one-to-two-processors event)."""
        view = self.node(name)
        if cpus is not None:
            view.cpus = cpus
        if speed is not None:
            view.speed = speed
        self._capacity_gained(view)

    # -- quarantine -------------------------------------------------------------

    def quarantine(self, name: str) -> None:
        """Exclude a node from placement (it stays up and keeps running
        whatever it already holds)."""
        view = self.node(name)
        view.quarantined = True

    def release_quarantine(self, name: str) -> None:
        view = self._nodes.get(name)
        if view is not None and view.quarantined:
            view.quarantined = False
            self._capacity_gained(view)

    # -- placement bookkeeping -----------------------------------------------------

    def assign(self, name: str, job_id: str) -> None:
        view = self.node(name)
        view.assigned.add(job_id)
        self._publish_utilization(view)

    def release(self, name: str, job_id: str) -> None:
        view = self._nodes.get(name)
        if view is not None:
            view.assigned.discard(job_id)
            self._capacity_gained(view)
            self._publish_utilization(view)

    def _publish_utilization(self, view: NodeView) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(
                f"node_util/{view.name}",
                view.assigned_count / view.cpus if view.cpus else 0.0,
            )

    # -- queries -------------------------------------------------------------------

    def candidates(self, placement: str = "") -> List[NodeView]:
        """Up nodes with a free slot, optionally filtered by placement tag."""
        result = []
        for name in sorted(self._members.get(placement, ())):
            view = self._nodes[name]
            if view.up and not view.quarantined and view.free_slots() >= 1:
                result.append(view)
        return result
