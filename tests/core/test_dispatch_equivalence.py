"""Placement equivalence: indexed dispatcher vs the seed linear-scan one.

The indexed dispatch path (per-tag queues, parked-tag incremental pump,
lazy-heap policy fast path) is a pure performance rebuild: it must make
*identical placement decisions* to the seed implementation for every
policy. This module keeps a faithful copy of the seed dispatcher and
replays randomized operation scripts — enqueues (tagged and untagged),
pumps, completions, node failures/recoveries, load reports, upgrades,
aborts, suspended instances, vetoes — through both, asserting that every
observable (submission order, chosen nodes, rejections, queue lengths,
in-flight sets) matches exactly. A second generator drives the saturated
regime: a queue hundreds deep on seven slots, one completion per pump,
with suspends, resumes and aborts landing on jobs that are queued, parked
or held.
"""

import random

import pytest

from repro.core.engine.dispatcher import Dispatcher, JobRequest
from repro.core.engine.scheduler import make_policy
from repro.core.monitor.awareness import AwarenessModel


class SeedDispatcher:
    """The seed implementation, verbatim: linear scans everywhere."""

    def __init__(self, awareness, policy):
        self.awareness = awareness
        self.policy = policy
        self._queue = []
        self._queued_keys = set()
        self.in_flight = {}
        self._submit = None
        self._record_dispatch = None
        self._is_dispatchable = None

    def wire(self, submit, record_dispatch, is_dispatchable):
        self._submit = submit
        self._record_dispatch = record_dispatch
        self._is_dispatchable = is_dispatchable

    def _candidates(self, placement):
        # the seed AwarenessModel.candidates: full scan over sorted nodes
        result = []
        for view in self.awareness.nodes():
            if not view.up or view.free_slots() < 1:
                continue
            if placement and placement not in view.tags:
                continue
            result.append(view)
        return result

    def enqueue(self, job):
        if job.key in self._queued_keys:
            return False
        for pending, _node in self.in_flight.values():
            if pending.key == job.key:
                return False
        self._queue.append(job)
        self._queued_keys.add(job.key)
        return True

    def is_pending(self, instance_id, task_path):
        key = f"{instance_id}:{task_path}"
        if key in self._queued_keys:
            return True
        return any(j.key == key for j, _ in self.in_flight.values())

    def drop_instance(self, instance_id):
        # seed behaviour plus the in-flight fix, so both dispatchers
        # release aborted instances' slots the same way
        before = len(self._queue)
        self._queue = [j for j in self._queue if j.instance_id != instance_id]
        self._queued_keys = {j.key for j in self._queue}
        removed = before - len(self._queue)
        for job_id in sorted(
            job_id for job_id, (j, _n) in self.in_flight.items()
            if j.instance_id == instance_id
        ):
            if self.job_finished(job_id) is not None:
                removed += 1
        return removed

    def queue_length(self):
        return len(self._queue)

    def pump(self):
        placed = 0
        remaining = []
        for job in self._queue:
            if not self._is_dispatchable(job.instance_id):
                remaining.append(job)
                continue
            candidates = self._candidates(job.placement)
            node = self.policy.select(candidates)
            if node is None:
                remaining.append(job)
                continue
            if not self._record_dispatch(job, node):
                self._queued_keys.discard(job.key)
                continue
            self.awareness.assign(node, job.job_id)
            self.in_flight[job.job_id] = (job, node)
            self._queued_keys.discard(job.key)
            self._submit(job, node)
            placed += 1
        self._queue = remaining
        return placed

    def job_finished(self, job_id):
        entry = self.in_flight.pop(job_id, None)
        if entry is not None:
            _job, node = entry
            self.awareness.release(node, job_id)
        return entry

    def jobs_on_node(self, node):
        return sorted(
            job_id for job_id, (_j, n) in self.in_flight.items() if n == node
        )


class _Side:
    """One dispatcher (seed or indexed) plus its private cluster view."""

    def __init__(self, policy_name, policy_seed, specs, kind):
        self.awareness = AwarenessModel()
        for name, cpus, speed, tags in specs:
            self.awareness.register(name, cpus, speed, tags)
        policy = make_policy(policy_name, seed=policy_seed)
        if kind == "seed":
            self.dispatcher = SeedDispatcher(self.awareness, policy)
        else:
            self.dispatcher = Dispatcher(self.awareness, policy)
        self.suspended = set()
        self.vetoed = set()
        self.log = []
        self.dispatcher.wire(
            submit=lambda job, node: self.log.append(
                ("submit", job.job_id, node)
            ),
            record_dispatch=lambda job, node: job.task_path
            not in self.vetoed,
            is_dispatchable=lambda iid: iid not in self.suspended,
        )

    def apply(self, op):
        kind = op[0]
        if kind == "enqueue":
            _, instance, task, attempt, placement = op
            accepted = self.dispatcher.enqueue(JobRequest(
                instance_id=instance, task_path=task, program="p",
                inputs={}, attempt=attempt, placement=placement,
            ))
            self.log.append(("enqueue", instance, task, accepted))
        elif kind == "pump":
            self.log.append(("pump", self.dispatcher.pump()))
        elif kind == "finish":
            live = sorted(self.dispatcher.in_flight)
            if live:
                job_id = live[op[1] % len(live)]
                self.dispatcher.job_finished(job_id)
                self.log.append(("finish", job_id))
        elif kind == "node_down":
            if self.awareness.node(op[1]).up:
                for orphan in self.awareness.node_down(op[1]):
                    self.dispatcher.job_finished(orphan)
                self.log.append(("down", op[1]))
        elif kind == "node_up":
            self.awareness.node_up(op[1])
        elif kind == "load":
            self.awareness.load_report(op[1], op[2])
        elif kind == "reconfigure":
            self.awareness.reconfigure(op[1], cpus=op[2])
        elif kind == "suspend":
            self.suspended.add(op[1])
        elif kind == "resume":
            self.suspended.discard(op[1])
        elif kind == "veto":
            self.vetoed.add(op[1])
        elif kind == "abort":
            self.log.append(
                ("abort", op[1], self.dispatcher.drop_instance(op[1]))
            )

    def snapshot(self):
        return {
            "queue_length": self.dispatcher.queue_length(),
            "in_flight": {
                job_id: node
                for job_id, (_j, node) in self.dispatcher.in_flight.items()
            },
        }


def _script(seed, n_ops=400):
    """Generate one randomized operation script."""
    rng = random.Random(f"dispatch-equivalence/{seed}")
    specs = []
    for i in range(12):
        tags = ()
        if i % 4 == 0:
            tags = ("gpu",)
        elif i % 5 == 0:
            tags = ("refine", "gpu")
        specs.append((f"n{i:02d}", rng.randint(1, 4),
                      rng.choice([0.5, 1.0, 2.0]), tags))
    instances = [f"pi-{k}" for k in range(6)]
    tasks = [f"T{k}" for k in range(8)]
    attempts = {}
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.40:
            instance = rng.choice(instances)
            task = rng.choice(tasks)
            key = (instance, task)
            attempts[key] = attempts.get(key, 0) + 1
            placement = rng.choice(["", "", "", "gpu", "refine"])
            ops.append(("enqueue", instance, task, attempts[key], placement))
        elif roll < 0.60:
            ops.append(("pump",))
        elif roll < 0.75:
            ops.append(("finish", rng.randrange(1000)))
        elif roll < 0.80:
            ops.append(("node_down", f"n{rng.randrange(12):02d}"))
        elif roll < 0.85:
            ops.append(("node_up", f"n{rng.randrange(12):02d}"))
        elif roll < 0.90:
            ops.append(("load", f"n{rng.randrange(12):02d}",
                        round(rng.uniform(0.0, 4.0), 2)))
        elif roll < 0.93:
            ops.append(("reconfigure", f"n{rng.randrange(12):02d}",
                        rng.randint(1, 6)))
        elif roll < 0.96:
            ops.append(rng.choice([("suspend",), ("resume",)])
                       + (rng.choice(instances),))
        elif roll < 0.98:
            ops.append(("veto", rng.choice(tasks)))
        else:
            ops.append(("abort", rng.choice(instances)))
    ops.append(("pump",))
    return specs, ops


DEEP_ROUNDS = 500


def _deep_script(seed):
    """A queue hundreds deep on seven slots, drained one completion per
    pump while instances are suspended, resumed, aborted and re-enqueued."""
    rng = random.Random(f"dispatch-equivalence/deep/{seed}")
    specs = [("a", 2, 1.0, ()), ("b", 2, 2.0, ()),
             ("g", 2, 1.0, ("gpu",)), ("r", 1, 0.5, ("refine", "gpu"))]
    instances = [f"pi-{k}" for k in range(60)]
    attempts = {}

    def enqueue():
        instance = rng.choice(instances)
        task = f"T{rng.randrange(40)}"
        attempts[instance, task] = attempts.get((instance, task), 0) + 1
        return ("enqueue", instance, task, attempts[instance, task],
                rng.choice(["", "", "", "gpu", "refine"]))

    ops = [enqueue() for _ in range(520)]
    ops.append(("pump",))
    for _ in range(DEEP_ROUNDS):
        roll = rng.random()
        if roll < 0.10:
            ops.append(("suspend", rng.choice(instances)))
        elif roll < 0.20:
            ops.append(("resume", rng.choice(instances)))
        elif roll < 0.23:
            ops.append(("abort", rng.choice(instances)))
        ops.append(enqueue())
        ops.append(("finish", rng.randrange(1000)))
        ops.append(("pump",))
    ops.extend(("resume", instance) for instance in instances)
    for _ in range(780):
        ops.append(("pump",))
        ops.append(("finish", rng.randrange(1000)))
    return specs, ops


POLICIES = ["capacity-aware", "least-loaded", "round-robin", "random"]


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("script_seed", [0, 1, 2])
def test_indexed_dispatcher_matches_seed(policy_name, script_seed):
    specs, ops = _script(script_seed)
    seed_side = _Side(policy_name, 7, specs, "seed")
    new_side = _Side(policy_name, 7, specs, "indexed")
    for op in ops:
        seed_side.apply(op)
        new_side.apply(op)
    assert new_side.log == seed_side.log
    assert new_side.snapshot() == seed_side.snapshot()


@pytest.mark.parametrize("policy_name", POLICIES)
def test_heavy_queue_with_scarce_capacity(policy_name):
    """Deep queue, one slot: placements must trickle out identically."""
    specs = [("a", 1, 1.0, ()), ("b", 1, 2.0, ("gpu",))]
    seed_side = _Side(policy_name, 3, specs, "seed")
    new_side = _Side(policy_name, 3, specs, "indexed")
    ops = []
    for k in range(40):
        ops.append(("enqueue", f"pi-{k % 5}", f"T{k}", 1,
                    "gpu" if k % 3 == 0 else ""))
    for _ in range(60):
        ops.append(("pump",))
        ops.append(("finish", 0))
    ops.append(("pump",))
    for op in ops:
        seed_side.apply(op)
        new_side.apply(op)
    assert new_side.log == seed_side.log
    assert new_side.snapshot() == seed_side.snapshot()


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("script_seed", [0, 1])
def test_deep_queue_one_completion_per_pump(policy_name, script_seed):
    specs, ops = _deep_script(script_seed)
    seed_side = _Side(policy_name, 5, specs, "seed")
    new_side = _Side(policy_name, 5, specs, "indexed")
    depths = []
    for op in ops:
        seed_side.apply(op)
        new_side.apply(op)
        if op[0] == "pump":
            depths.append(seed_side.dispatcher.queue_length())
    assert new_side.log == seed_side.log
    assert new_side.snapshot() == seed_side.snapshot()
    assert min(depths[:DEEP_ROUNDS]) >= 200  # the regime the script claims
    assert depths[-1] == 0
