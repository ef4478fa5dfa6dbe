"""What-if outage planning (paper, Section 3.5).

"A system administrator could ask the system which processes will be
affected if a node or set of nodes is taken off-line. BioOpera will then
use the configuration information and the process structure to determine
whether alternatives exist and will then re-schedule the processes
accordingly, notifying the administrator of the processes that will stop,
how far in their execution these processes are, their priority (if any),
and so forth."

:func:`outage_impact` answers exactly that query from the awareness model
and the live instances; :func:`drain_plan` produces the operator's
checklist for taking the nodes down with minimal disruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ...errors import PlanningError
from ..engine.server import BioOperaServer


@dataclass
class InstanceImpact:
    """How one process instance is affected by a planned outage."""

    instance_id: str
    template: str
    status: str
    #: tasks currently running on nodes that would go away
    displaced_tasks: List[str]
    #: fraction of tasks already completed (how far along it is)
    progress_fraction: float
    #: True if the remaining cluster can still run its queued/displaced work
    can_continue: bool
    #: where the displaced work would go (task path -> candidate node)
    relocation: Dict[str, str]


@dataclass
class OutagePlan:
    """Full answer to "what happens if we take these nodes off-line?"."""

    nodes: Tuple[str, ...]
    removed_cpus: int
    remaining_cpus: int
    affected: List[InstanceImpact]
    unaffected: List[str]
    #: instances that cannot make progress on the remaining cluster
    stopped: List[str]

    def summary(self) -> str:
        lines = [
            f"outage of {', '.join(self.nodes)}: "
            f"-{self.removed_cpus} CPUs ({self.remaining_cpus} remain)",
        ]
        for impact in self.affected:
            verdict = "can continue" if impact.can_continue else "WILL STOP"
            lines.append(
                f"  {impact.instance_id} ({impact.template}): "
                f"{len(impact.displaced_tasks)} running task(s) displaced, "
                f"{impact.progress_fraction:.0%} complete — {verdict}"
            )
        if self.unaffected:
            lines.append(f"  unaffected: {', '.join(self.unaffected)}")
        return "\n".join(lines)


def outage_impact(server: BioOperaServer,
                  nodes: Sequence[str]) -> OutagePlan:
    """Evaluate taking ``nodes`` off-line, without changing anything.

    Looks at the instances in memory only: one a recovery deferred has
    ended, and an outage displaces nothing of it.
    """
    node_set = set(nodes)
    for name in node_set:
        if not server.awareness.has_node(name):
            raise PlanningError(f"unknown node {name!r}")
    removed_cpus = sum(
        server.awareness.node(name).cpus
        for name in node_set if server.awareness.node(name).up
    )
    survivors = [
        view for view in server.awareness.nodes()
        if view.name not in node_set and view.up
    ]
    remaining_cpus = sum(view.cpus for view in survivors)
    survivor_tags: Set[str] = set()
    for view in survivors:
        survivor_tags.update(view.tags)

    affected: List[InstanceImpact] = []
    unaffected: List[str] = []
    stopped: List[str] = []
    for instance in sorted(server.instances.loaded(),
                           key=lambda instance: instance.id):
        instance_id = instance.id
        if instance.terminal:
            continue
        displaced = [
            state.path for state in instance.dispatched_states()
            if state.node in node_set
        ]
        states = list(instance.iter_states())
        done = sum(1 for s in states if s.status == "completed")
        progress = done / len(states) if states else 0.0
        # Placement feasibility: every displaced job needs some surviving
        # node matching its placement tag (if any). The tag comes from the
        # dispatcher's live job record.
        placements: Dict[str, str] = {}
        for _job_id, (job, node) in server.dispatcher.in_flight.items():
            if job.instance_id == instance_id and node in node_set:
                placements[job.task_path] = job.placement
        relocation: Dict[str, str] = {}
        feasible = remaining_cpus > 0
        for path in displaced:
            placement = placements.get(path, "")
            candidates = [
                view.name for view in survivors
                if not placement or placement in view.tags
            ]
            if candidates:
                relocation[path] = candidates[0]
            else:
                feasible = False
        # An instance with refine-tagged activities also needs a tagged
        # survivor; approximate by checking tags used so far.
        used_tags = {
            tag for _job_id, (job, _node)
            in server.dispatcher.in_flight.items()
            if job.instance_id == instance_id
            for tag in ([job.placement] if job.placement else [])
        }
        if any(tag not in survivor_tags for tag in used_tags):
            feasible = False
        if not displaced and feasible:
            unaffected.append(instance_id)
            continue
        impact = InstanceImpact(
            instance_id=instance_id,
            template=instance.template.name if instance.template else "",
            status=instance.status,
            displaced_tasks=sorted(displaced),
            progress_fraction=progress,
            can_continue=feasible,
            relocation=relocation,
        )
        affected.append(impact)
        if not feasible:
            stopped.append(instance_id)
    return OutagePlan(
        nodes=tuple(sorted(node_set)),
        removed_cpus=removed_cpus,
        remaining_cpus=remaining_cpus,
        affected=affected,
        unaffected=unaffected,
        stopped=stopped,
    )


def drain_plan(server: BioOperaServer, nodes: Sequence[str]) -> List[str]:
    """Operator checklist for a minimal-disruption planned outage."""
    plan = outage_impact(server, nodes)
    steps: List[str] = []
    for impact in plan.affected:
        if not impact.can_continue:
            steps.append(
                f"suspend {impact.instance_id} (cannot continue without "
                f"{', '.join(plan.nodes)})"
            )
    for impact in plan.affected:
        for path in impact.displaced_tasks:
            target = impact.relocation.get(path)
            if target:
                steps.append(
                    f"let {impact.instance_id}:{path} finish or re-run it "
                    f"on {target}"
                )
            else:
                steps.append(
                    f"{impact.instance_id}:{path} has no relocation target"
                )
    steps.append(f"take {', '.join(plan.nodes)} off-line")
    for impact in plan.affected:
        if not impact.can_continue:
            steps.append(f"resume {impact.instance_id} after the outage")
    return steps
