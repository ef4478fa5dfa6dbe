"""FaultPlan: a seeded, serializable failure schedule for one campaign.

A plan has two halves:

* ``scheduled`` — cluster-level disturbances at absolute simulated times
  (node crashes, mass failures, network outages, storage-full windows,
  I/O-error bursts, load bursts, server crashes), executed through a
  :class:`~repro.cluster.failures.ScenarioScript`;
* ``actions`` — one-shot :class:`FaultAction` entries armed against the
  crash-point registry (:mod:`repro.faults.points`), firing on the n-th
  hit of a named point.

Plans are value objects: :meth:`FaultPlan.generate` derives one
deterministically from a seed, and ``to_dict``/``from_dict`` round-trip
through JSON so a failing campaign can be dumped and replayed bit-for-bit.
This module is pure (no engine/cluster imports) so the registry call sites
can be imported from anywhere without cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: cluster-level disturbance categories a generated plan can schedule.
SCHEDULED_CATEGORIES = (
    "node-crash",
    "mass-failure",
    "network-outage",
    "storage-full",
    "io-error-burst",
    "load-burst",
    "server-crash",
    "partition",
    "net-loss",
    "net-duplicate",
    "net-reorder",
    "shard-crash",
    "shard-partition",
    "shard-node-crash",
    "shard-drain",
    "shard-grow",
)

#: plan profiles: ``mixed`` draws from every category; ``partition``
#: draws only the network-fabric disturbances (partitions, loss,
#: duplication, reordering, outages, a broker↔shard cut) plus server
#: crashes — the split-brain/fencing stress mix; ``shard`` targets one
#: shard of a sharded control plane (crash, broker-link partition, node
#: crash) and asserts the blast radius stays inside that shard;
#: ``rebalance`` drains one shard mid-campaign (optionally growing the
#: plane first), arming crashes inside the migration protocol's
#: journaled windows, and asserts no instance loses a byte across the
#: move.
PROFILES = ("mixed", "partition", "shard", "rebalance")


@dataclass
class FaultAction:
    """One-shot directive against a fault point (see points.CATALOG)."""

    point: str
    kind: str
    at_hit: int = 1
    delay: float = 0.0           # for kind="delay": extra latency (seconds)
    torn_fraction: float = 0.5   # for kind="torn": record prefix written

    def to_dict(self) -> Dict:
        """Serialize to a JSON-safe dict."""
        return {
            "point": self.point,
            "kind": self.kind,
            "at_hit": self.at_hit,
            "delay": self.delay,
            "torn_fraction": self.torn_fraction,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultAction":
        """Rebuild an action from :meth:`to_dict` output."""
        return cls(
            point=data["point"],
            kind=data["kind"],
            at_hit=int(data.get("at_hit", 1)),
            delay=float(data.get("delay", 0.0)),
            torn_fraction=float(data.get("torn_fraction", 0.5)),
        )


@dataclass
class ScheduledFault:
    """One cluster-level disturbance at an absolute simulated time."""

    category: str
    time: float
    params: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Serialize to a JSON-safe dict."""
        return {
            "category": self.category,
            "time": self.time,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ScheduledFault":
        """Rebuild a fault from :meth:`to_dict` output."""
        return cls(
            category=data["category"],
            time=float(data["time"]),
            params=dict(data.get("params", {})),
        )


@dataclass
class FaultPlan:
    """Everything needed to reproduce one chaos campaign's failures."""

    seed: int
    scheduled: List[ScheduledFault] = field(default_factory=list)
    actions: List[FaultAction] = field(default_factory=list)

    def categories(self) -> List[str]:
        """Sorted distinct categories this plan covers (scheduled
        disturbances by name, point actions as ``point:<point>``)."""
        names = {fault.category for fault in self.scheduled}
        names.update(f"point:{action.point}" for action in self.actions)
        return sorted(names)

    def to_dict(self) -> Dict:
        """Serialize the whole plan to a JSON-safe dict."""
        return {
            "seed": self.seed,
            "scheduled": [fault.to_dict() for fault in self.scheduled],
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            seed=int(data["seed"]),
            scheduled=[
                ScheduledFault.from_dict(f) for f in data.get("scheduled", ())
            ],
            actions=[
                FaultAction.from_dict(a) for a in data.get("actions", ())
            ],
        )

    # ------------------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, node_names: Sequence[str],
                 horizon: float = 600.0,
                 profile: str = "mixed") -> "FaultPlan":
        """Draw a randomized failure schedule from the seed.

        ``horizon`` should roughly match the fault-free wall time of the
        workload so disturbances land while work is actually in flight;
        schedules landing after completion simply never run. ``profile``
        selects the draw mix (see :data:`PROFILES`).
        """
        if profile not in PROFILES:
            raise ValueError(f"unknown plan profile {profile!r}")
        mixed = profile == "mixed"
        rng = random.Random(f"fault-plan/{seed}")
        nodes = list(node_names)
        scheduled: List[ScheduledFault] = []

        def when(lo: float = 0.05, hi: float = 0.75) -> float:
            """A seeded time inside the campaign horizon."""
            return round(rng.uniform(lo * horizon, hi * horizon), 3)

        if profile == "shard":
            # One victim shard takes every disturbance, so the campaign
            # can require the *other* shards' event logs byte-identical
            # to a fault-free twin. "victim" is a fraction; the shard
            # campaign resolves it to ``int(victim * shards)`` so one
            # plan replays against any plane size. A shard crash is
            # always drawn (it is the profile's reason to exist); the
            # broker-link partition and a node crash inside the victim's
            # pool ride along probabilistically.
            victim = round(rng.random(), 6)
            scheduled.append(ScheduledFault("shard-crash", when(), {
                "victim": victim,
            }))
            if rng.random() < 0.5:
                scheduled.append(ScheduledFault("shard-partition", when(), {
                    "victim": victim,
                    "symmetric": rng.random() < 0.7,
                    "duration": round(
                        rng.uniform(0.15, 0.8) * horizon, 3),
                }))
            if rng.random() < 0.4:
                scheduled.append(ScheduledFault("shard-node-crash", when(), {
                    "victim": victim,
                    "node": round(rng.random(), 6),
                    "duration": round(
                        rng.uniform(0.2, 1.5) * horizon, 3),
                }))
            return cls(seed=seed, scheduled=scheduled, actions=[])

        if profile == "rebalance":
            # One shard is always drained mid-campaign ("victim" and
            # "target" are fractions the campaign resolves against the
            # plane size, like the shard profile); the plane may grow
            # first so drained instances can land on a fresh shard. The
            # dependability content is the armed crashes inside the
            # migration protocol's journaled windows — prepare/export/
            # commit crash the source shard, import/activate the target.
            victim = round(rng.random(), 6)
            if rng.random() < 0.5:
                scheduled.append(ScheduledFault("shard-grow", when(
                    0.05, 0.5), {"count": 1}))
            scheduled.append(ScheduledFault("shard-drain", when(
                0.15, 0.6), {"victim": victim}))
            if rng.random() < 0.35:
                scheduled.append(ScheduledFault("shard-crash", when(
                    0.6, 0.85), {"victim": round(rng.random(), 6)}))
            actions = []
            for point in ("shard.migrate.prepare", "shard.migrate.export",
                          "shard.migrate.import", "shard.migrate.commit",
                          "shard.migrate.activate"):
                if rng.random() < 0.45:
                    actions.append(FaultAction(
                        point, "crash", at_hit=rng.randint(1, 3)))
            return cls(seed=seed, scheduled=scheduled, actions=actions)

        if mixed and rng.random() < 0.7:
            scheduled.append(ScheduledFault("node-crash", when(), {
                "node": rng.choice(nodes),
                "duration": round(rng.uniform(0.2, 2.0) * horizon, 3),
            }))
        if mixed and rng.random() < 0.35:
            count = rng.randint(max(1, len(nodes) // 2), len(nodes))
            scheduled.append(ScheduledFault("mass-failure", when(), {
                "nodes": sorted(rng.sample(nodes, count)),
                "duration": round(rng.uniform(0.3, 1.5) * horizon, 3),
            }))
        if rng.random() < (0.5 if mixed else 0.4):
            scheduled.append(ScheduledFault("network-outage", when(), {
                "duration": round(rng.uniform(0.1, 1.2) * horizon, 3),
            }))
        if mixed and rng.random() < 0.35:
            scheduled.append(ScheduledFault("storage-full", when(), {
                "duration": round(rng.uniform(0.2, 1.0) * horizon, 3),
            }))
        if mixed and rng.random() < 0.4:
            scheduled.append(ScheduledFault("io-error-burst", when(), {
                "rate": round(rng.uniform(0.05, 0.35), 3),
                "duration": round(rng.uniform(0.3, 1.5) * horizon, 3),
            }))
        if mixed and rng.random() < 0.5:
            count = rng.randint(1, len(nodes))
            scheduled.append(ScheduledFault("load-burst", when(), {
                "nodes": sorted(rng.sample(nodes, count)),
                "load_fraction": round(rng.uniform(0.3, 0.9), 3),
                "duration": round(rng.uniform(0.3, 1.5) * horizon, 3),
            }))
        if rng.random() < (0.55 if mixed else 0.5):
            scheduled.append(ScheduledFault("server-crash", when()))
        if not mixed and rng.random() < 0.6:
            # A cut between the broker and the shard: one that outlasts
            # the detector's takeover window promotes a live incarnation.
            scheduled.append(ScheduledFault("shard-partition", when(), {
                "symmetric": rng.random() < 0.7,
                "duration": round(rng.uniform(0.15, 0.8) * horizon, 3),
            }))
        # Network-fabric disturbances: per-link partitions with a drawn
        # direction (symmetric, half-open toward the server, half-open
        # toward the nodes), sampled loss, duplication, reordering.
        if rng.random() < (0.5 if mixed else 0.9):
            count = rng.randint(1, len(nodes))
            scheduled.append(ScheduledFault("partition", when(), {
                "nodes": sorted(rng.sample(nodes, count)),
                "direction": rng.choice(("both", "to-server", "to-nodes")),
                "duration": round(rng.uniform(0.15, 1.0) * horizon, 3),
            }))
        if rng.random() < (0.45 if mixed else 0.7):
            scheduled.append(ScheduledFault("net-loss", when(), {
                "rate": round(rng.uniform(0.02, 0.25), 3),
                "duration": round(rng.uniform(0.3, 1.2) * horizon, 3),
            }))
        if rng.random() < (0.45 if mixed else 0.7):
            scheduled.append(ScheduledFault("net-duplicate", when(), {
                "rate": round(rng.uniform(0.05, 0.5), 3),
                "duration": round(rng.uniform(0.3, 1.2) * horizon, 3),
            }))
        if rng.random() < (0.45 if mixed else 0.7):
            scheduled.append(ScheduledFault("net-reorder", when(), {
                "rate": round(rng.uniform(0.05, 0.5), 3),
                "extra": round(rng.uniform(0.5, 30.0), 3),
                "duration": round(rng.uniform(0.3, 1.2) * horizon, 3),
            }))

        actions: List[FaultAction] = []

        def maybe(prob, point, kind, hits, **extra):
            """Arm a crash-point action with the given probability."""
            if rng.random() < prob:
                actions.append(FaultAction(
                    point, kind, at_hit=rng.randint(*hits), **extra
                ))

        if mixed:
            maybe(0.3, "wal.append", "crash", (1, 40))
            maybe(0.25, "wal.append", "torn", (1, 40),
                  torn_fraction=round(rng.uniform(0.1, 0.9), 3))
            maybe(0.25, "kvstore.commit.pre-sync", "crash", (1, 50))
            maybe(0.25, "kvstore.commit.post-sync", "crash", (1, 50))
            maybe(0.25, "server.emit.pre-persist", "crash", (1, 40))
            maybe(0.25, "server.emit.post-persist", "crash", (1, 40))
            maybe(0.3, "server.dispatch.record", "crash", (1, 12))
            maybe(0.3, "dispatcher.submit", "crash", (1, 12))
            maybe(0.25, "navigator.navigate", "crash", (1, 30))
            maybe(0.3, "recovery.replay", "crash", (1, 2))
            # Log-lifecycle windows: rotation fires on segment-threshold
            # crossings, checkpoint points a handful of times per run (the
            # observability hub checkpoints every CHECKPOINT_INTERVAL
            # events), so hit numbers stay small.
            maybe(0.3, "store.rotate", "crash", (1, 8))
            maybe(0.25, "store.checkpoint.begin", "crash", (1, 4))
            maybe(0.25, "store.checkpoint.post-snapshot", "crash", (1, 4))
            maybe(0.25, "store.checkpoint.truncate", "crash", (1, 4))
            maybe(0.25, "store.checkpoint.post-truncate", "crash", (1, 4))
        maybe(0.4, "pec.report", "duplicate", (1, 15))
        maybe(0.4, "pec.report", "delay", (1, 15),
              delay=round(rng.uniform(10.0, 400.0), 3))
        maybe(0.3, "pec.report", "drop", (1, 15))
        maybe(0.4, "network.deliver", "drop", (1, 20))
        maybe(0.35, "network.deliver", "delay", (1, 20),
              delay=round(rng.uniform(5.0, 240.0), 3))
        maybe(0.35, "network.deliver", "duplicate", (1, 20))
        if mixed:
            for _ in range(rng.randint(0, 2)):
                actions.append(FaultAction(
                    "pec.program", "error", at_hit=rng.randint(1, 10)
                ))
        return cls(seed=seed, scheduled=scheduled, actions=actions)
