"""Scheduling and load-balancing policies.

"If the choice of assignment is not unique, the node is determined by the
scheduling and load balancing policy in use" (paper, Section 3.2). Policies
choose among candidate :class:`~repro.core.monitor.awareness.NodeView`\\ s
(already filtered to up nodes with a free slot and a matching placement
tag). The scheduler ablation benchmark compares these policies on a
heterogeneous cluster.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..monitor.awareness import NodeView


class SchedulingPolicy:
    """Strategy interface: pick a node name, or None to keep the job queued."""

    name = "abstract"

    def select(self, candidates: List[NodeView]) -> Optional[str]:
        raise NotImplementedError


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through nodes regardless of load or speed."""

    name = "round-robin"

    def __init__(self):
        self._last = ""

    def select(self, candidates: List[NodeView]) -> Optional[str]:
        if not candidates:
            return None
        # Sort defensively: the rotation must not depend on the caller's
        # list order, or an unsorted candidate list can starve nodes.
        names = sorted(view.name for view in candidates)
        for name in names:
            if name > self._last:
                self._last = name
                return name
        self._last = names[0]
        return names[0]


class LeastLoadedPolicy(SchedulingPolicy):
    """Prefer the node with the most estimated free capacity."""

    name = "least-loaded"

    def select(self, candidates: List[NodeView]) -> Optional[str]:
        if not candidates:
            return None
        best = max(candidates, key=lambda v: (v.effective_free(), v.name))
        return best.name


class CapacityAwarePolicy(SchedulingPolicy):
    """Prefer the node offering the highest effective *rate*:
    estimated free CPUs times per-CPU speed, floored so a saturated fast
    node still beats an idle crawler. This is the default — on
    heterogeneous clusters it routes work to fast idle machines first."""

    name = "capacity-aware"

    def select(self, candidates: List[NodeView]) -> Optional[str]:
        if not candidates:
            return None
        best = max(
            candidates,
            key=lambda v: (max(0.25, v.effective_free()) * v.speed, v.name),
        )
        return best.name


class RandomPolicy(SchedulingPolicy):
    """Uniform random choice (baseline for the scheduling ablation)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(f"scheduler/{seed}")

    def select(self, candidates: List[NodeView]) -> Optional[str]:
        if not candidates:
            return None
        return self._rng.choice([view.name for view in candidates])


def make_policy(name: str, seed: int = 0) -> SchedulingPolicy:
    """Factory by policy name (used by configuration files and benches)."""
    policies = {
        "round-robin": RoundRobinPolicy,
        "least-loaded": LeastLoadedPolicy,
        "capacity-aware": CapacityAwarePolicy,
    }
    if name == "random":
        return RandomPolicy(seed)
    if name not in policies:
        raise ValueError(f"unknown scheduling policy {name!r}")
    return policies[name]()
