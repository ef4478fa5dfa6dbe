"""Scheduling policies, awareness model, dispatcher bookkeeping."""

import pytest

from repro.core.engine.dispatcher import Dispatcher, JobRequest
from repro.core.engine.scheduler import (
    CapacityAwarePolicy,
    LeastLoadedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.core.monitor.awareness import AwarenessModel
from repro.errors import EngineError
from repro.obs.metrics import MetricsRegistry


def make_awareness(*specs):
    """specs: (name, cpus, speed[, tags])"""
    model = AwarenessModel()
    for spec in specs:
        name, cpus, speed = spec[0], spec[1], spec[2]
        tags = spec[3] if len(spec) > 3 else ()
        model.register(name, cpus, speed, tags)
    return model


class TestAwareness:
    def test_candidates_excludes_down_nodes(self):
        model = make_awareness(("a", 2, 1.0), ("b", 2, 1.0))
        model.node_down("a")
        assert [v.name for v in model.candidates()] == ["b"]

    def test_candidates_excludes_full_nodes(self):
        model = make_awareness(("a", 1, 1.0), ("b", 2, 1.0))
        model.assign("a", "job1")
        assert [v.name for v in model.candidates()] == ["b"]

    def test_placement_tag_filter(self):
        model = make_awareness(("a", 2, 1.0), ("b", 2, 1.0, ("refine",)))
        assert [v.name for v in model.candidates("refine")] == ["b"]
        assert [v.name for v in model.candidates()] == ["a", "b"]

    def test_node_down_returns_orphans(self):
        model = make_awareness(("a", 2, 1.0))
        model.assign("a", "j1")
        model.assign("a", "j2")
        assert model.node_down("a") == ["j1", "j2"]
        assert model.node("a").assigned == set()

    def test_effective_free_accounts_for_load(self):
        model = make_awareness(("a", 4, 1.0))
        model.load_report("a", 2.5)
        model.assign("a", "j1")
        assert model.node("a").effective_free() == pytest.approx(0.5)

    def test_reconfigure(self):
        model = make_awareness(("a", 1, 1.0))
        model.reconfigure("a", cpus=2, speed=1.5)
        assert model.node("a").cpus == 2
        assert model.node("a").speed == 1.5

    def test_total_cpus(self):
        model = make_awareness(("a", 2, 1.0), ("b", 3, 1.0))
        model.node_down("b")
        assert model.total_cpus() == 2
        assert model.total_cpus(only_up=False) == 5

    def test_unknown_node_raises(self):
        with pytest.raises(EngineError):
            make_awareness().node("ghost")

    def test_release_unknown_node_is_noop(self):
        make_awareness().release("ghost", "j1")


class TestPolicies:
    def test_least_loaded_prefers_free_capacity(self):
        model = make_awareness(("a", 4, 1.0), ("b", 4, 1.0))
        model.assign("a", "j1")
        model.assign("a", "j2")
        policy = LeastLoadedPolicy()
        assert policy.select(model.candidates()) == "b"

    def test_least_loaded_uses_external_load(self):
        model = make_awareness(("a", 4, 1.0), ("b", 4, 1.0))
        model.load_report("a", 3.0)
        assert LeastLoadedPolicy().select(model.candidates()) == "b"

    def test_capacity_aware_prefers_fast_free_node(self):
        model = make_awareness(("slow", 4, 0.5), ("fast", 2, 2.0))
        assert CapacityAwarePolicy().select(model.candidates()) == "fast"

    def test_capacity_aware_avoids_loaded_fast_node(self):
        model = make_awareness(("slow", 4, 0.8), ("fast", 2, 2.0))
        model.load_report("fast", 2.0)  # fully busy with other users
        assert CapacityAwarePolicy().select(model.candidates()) == "slow"

    def test_round_robin_cycles(self):
        model = make_awareness(("a", 9, 1.0), ("b", 9, 1.0), ("c", 9, 1.0))
        policy = RoundRobinPolicy()
        picks = [policy.select(model.candidates()) for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_round_robin_independent_of_candidate_order(self):
        """Regression: the rotation must not depend on list order — with an
        unsorted candidate list the old implementation picked the first
        name > last in *list* order and could starve nodes."""
        import random

        model = make_awareness(("a", 9, 1.0), ("b", 9, 1.0), ("c", 9, 1.0))
        rng = random.Random(7)
        policy = RoundRobinPolicy()
        picks = []
        for _ in range(9):
            candidates = model.candidates()
            rng.shuffle(candidates)
            picks.append(policy.select(candidates))
        assert picks == ["a", "b", "c"] * 3

    def test_random_policy_deterministic_per_seed(self):
        model = make_awareness(("a", 9, 1.0), ("b", 9, 1.0))
        picks1 = [RandomPolicy(1).select(model.candidates())
                  for _ in range(5)]
        picks2 = [RandomPolicy(1).select(model.candidates())
                  for _ in range(5)]
        # fresh policies with the same seed agree on the first pick
        assert picks1[0] == picks2[0]

    def test_all_policies_handle_empty_candidates(self):
        for policy in (RoundRobinPolicy(), LeastLoadedPolicy(),
                       CapacityAwarePolicy(), RandomPolicy(0)):
            assert policy.select([]) is None

    def test_factory(self):
        assert make_policy("round-robin").name == "round-robin"
        assert make_policy("least-loaded").name == "least-loaded"
        assert make_policy("capacity-aware").name == "capacity-aware"
        assert make_policy("random").name == "random"
        with pytest.raises(ValueError):
            make_policy("oracle")


class _DispatchHarness:
    """Minimal server-side wiring for dispatcher unit tests."""

    def __init__(self, awareness):
        self.dispatcher = Dispatcher(awareness)
        self.submitted = []
        self.vetoed = []
        self.dispatchable = True
        self.dispatcher.wire(
            submit=lambda job, node: self.submitted.append((job, node)),
            record_dispatch=self._record,
            is_dispatchable=lambda _iid: self.dispatchable,
        )

    def _record(self, job, node):
        if job.task_path in self.vetoed:
            return False
        return True


def job(path="T", attempt=1, placement="", instance="pi-1"):
    return JobRequest(
        instance_id=instance, task_path=path, program="p", inputs={},
        attempt=attempt, placement=placement,
    )


class TestDispatcher:
    def test_places_job_and_tracks_assignment(self):
        model = make_awareness(("a", 2, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job())
        assert harness.dispatcher.pump() == 1
        assert harness.submitted[0][1] == "a"
        assert model.node("a").assigned_count == 1

    def test_duplicate_enqueue_rejected(self):
        harness = _DispatchHarness(make_awareness(("a", 2, 1.0)))
        assert harness.dispatcher.enqueue(job()) is True
        assert harness.dispatcher.enqueue(job()) is False

    def test_enqueue_rejected_while_in_flight(self):
        harness = _DispatchHarness(make_awareness(("a", 2, 1.0)))
        harness.dispatcher.enqueue(job())
        harness.dispatcher.pump()
        assert harness.dispatcher.enqueue(job(attempt=2)) is False

    def test_requeue_allowed_after_finish(self):
        harness = _DispatchHarness(make_awareness(("a", 2, 1.0)))
        request = job()
        harness.dispatcher.enqueue(request)
        harness.dispatcher.pump()
        harness.dispatcher.job_finished(request.job_id)
        assert harness.dispatcher.enqueue(job(attempt=2)) is True

    def test_jobs_wait_when_no_capacity(self):
        model = make_awareness(("a", 1, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1"))
        harness.dispatcher.enqueue(job("T2"))
        assert harness.dispatcher.pump() == 1
        assert harness.dispatcher.queue_length() == 1
        # capacity frees up -> next pump places the waiter
        first = harness.submitted[0][0]
        harness.dispatcher.job_finished(first.job_id)
        assert harness.dispatcher.pump() == 1

    def test_placement_tag_respected(self):
        model = make_awareness(("a", 4, 1.0), ("b", 4, 1.0, ("gpu",)))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", placement="gpu"))
        harness.dispatcher.pump()
        assert harness.submitted[0][1] == "b"

    def test_unplaceable_tagged_job_waits(self):
        model = make_awareness(("a", 4, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", placement="gpu"))
        assert harness.dispatcher.pump() == 0
        assert harness.dispatcher.queue_length() == 1

    def test_suspended_instance_not_dispatched(self):
        harness = _DispatchHarness(make_awareness(("a", 2, 1.0)))
        harness.dispatchable = False
        harness.dispatcher.enqueue(job())
        assert harness.dispatcher.pump() == 0
        harness.dispatchable = True
        assert harness.dispatcher.pump() == 1

    def test_veto_drops_job(self):
        harness = _DispatchHarness(make_awareness(("a", 2, 1.0)))
        harness.vetoed.append("T")
        harness.dispatcher.enqueue(job())
        assert harness.dispatcher.pump() == 0
        assert harness.dispatcher.queue_length() == 0  # dropped, not waiting

    def test_drop_instance_clears_queue_and_in_flight(self):
        model = make_awareness(("a", 1, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", instance="pi-1"))
        harness.dispatcher.enqueue(job("T2", instance="pi-1"))
        harness.dispatcher.enqueue(job("T3", instance="pi-2"))
        harness.dispatcher.pump()  # places T1
        # drops queued T2 AND in-flight T1 (which releases its node slot)
        assert harness.dispatcher.drop_instance("pi-1") == 2
        assert harness.dispatcher.queue_length() == 1
        assert harness.dispatcher.in_flight == {}
        assert model.node("a").assigned_count == 0

    def test_drop_instance_frees_slots_for_other_instances(self):
        """Regression: aborting an instance under load must release its
        in-flight node slots — previously they stayed assigned until a
        completion that may never be delivered, starving other work."""
        model = make_awareness(("a", 1, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", instance="pi-1"))
        harness.dispatcher.enqueue(job("T2", instance="pi-2"))
        assert harness.dispatcher.pump() == 1  # pi-1 takes the only slot
        harness.dispatcher.drop_instance("pi-1")
        # the freed slot must be usable immediately, without any completion
        assert harness.dispatcher.pump() == 1
        assert harness.submitted[1][0].instance_id == "pi-2"

    def test_drop_instance_tombstones_survive_requeue(self):
        """A key dropped while queued may be re-enqueued (new attempt);
        the stale deque entry must not shadow the live one."""
        model = make_awareness(("a", 1, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", instance="pi-1", attempt=1))
        harness.dispatcher.drop_instance("pi-1")
        assert harness.dispatcher.queue_length() == 0
        harness.dispatcher.enqueue(job("T1", instance="pi-1", attempt=2))
        assert harness.dispatcher.pump() == 1
        assert harness.submitted[0][0].attempt == 2

    def test_jobs_on_node(self):
        model = make_awareness(("a", 2, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1"))
        harness.dispatcher.enqueue(job("T2"))
        harness.dispatcher.pump()
        assert len(harness.dispatcher.jobs_on_node("a")) == 2

    def test_job_finished_unknown_returns_none(self):
        harness = _DispatchHarness(make_awareness(("a", 2, 1.0)))
        assert harness.dispatcher.job_finished("ghost") is None


class TestIncrementalPump:
    """The parked-tag fast path must wake on every capacity-gain event."""

    def test_blocked_tag_wakes_on_job_release(self):
        model = make_awareness(("a", 1, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1"))
        harness.dispatcher.enqueue(job("T2"))
        assert harness.dispatcher.pump() == 1
        assert harness.dispatcher.pump() == 0  # parked: no capacity change
        first = harness.submitted[0][0]
        harness.dispatcher.job_finished(first.job_id)
        assert harness.dispatcher.pump() == 1

    def test_blocked_tag_wakes_on_node_up(self):
        model = make_awareness(("a", 1, 1.0))
        model.node_down("a")
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1"))
        assert harness.dispatcher.pump() == 0
        assert harness.dispatcher.pump() == 0
        model.node_up("a")
        assert harness.dispatcher.pump() == 1

    def test_blocked_tag_wakes_on_upgrade(self):
        model = make_awareness(("a", 1, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1"))
        harness.dispatcher.enqueue(job("T2"))
        assert harness.dispatcher.pump() == 1
        model.reconfigure("a", cpus=2)
        assert harness.dispatcher.pump() == 1

    def test_blocked_tag_wakes_on_register(self):
        model = make_awareness(("a", 4, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", placement="gpu"))
        assert harness.dispatcher.pump() == 0
        model.register("g1", 2, 1.0, ("gpu",))
        assert harness.dispatcher.pump() == 1
        assert harness.submitted[0][1] == "g1"

    def test_untagged_jobs_not_starved_by_blocked_tag(self):
        model = make_awareness(("a", 2, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", placement="gpu"))
        harness.dispatcher.enqueue(job("T2"))
        assert harness.dispatcher.pump() == 1  # T2 places, gpu parks
        assert harness.submitted[0][0].task_path == "T2"

    def test_tagged_job_keeps_fifo_priority_over_untagged(self):
        """A gpu job enqueued first must win the gpu node's last slot over
        a later untagged job that could also run there."""
        model = make_awareness(("g", 1, 1.0, ("gpu",)))
        harness = _DispatchHarness(model)
        harness.dispatcher.enqueue(job("T1", placement="gpu"))
        harness.dispatcher.enqueue(job("T2"))
        assert harness.dispatcher.pump() == 1
        assert harness.submitted[0][0].task_path == "T1"

    def test_undispatchable_jobs_retried_every_pump(self):
        model = make_awareness(("a", 2, 1.0))
        harness = _DispatchHarness(model)
        harness.dispatchable = False
        harness.dispatcher.enqueue(job("T1"))
        assert harness.dispatcher.pump() == 0
        assert harness.dispatcher.pump() == 0
        harness.dispatchable = True
        # no capacity event happened, but dispatchability is re-tested
        assert harness.dispatcher.pump() == 1

    def test_queue_depth_gauge_set_while_every_tag_is_parked(self):
        """The gauge is "jobs queued after the last pump", also after a
        pump that found every tag parked and placed nothing."""
        model = make_awareness(("a", 2, 1.0))
        harness = _DispatchHarness(model)
        metrics = harness.dispatcher.metrics = MetricsRegistry()
        for k in range(10):
            harness.dispatcher.enqueue(job(f"T{k}"))
        assert harness.dispatcher.pump() == 2
        assert metrics.gauge("queue_depth") == 8
        for k in range(10, 15):
            harness.dispatcher.enqueue(job(f"T{k}"))
        assert harness.dispatcher.pump() == 0
        assert harness.dispatcher.queue_length() == 13
        assert metrics.gauge("queue_depth") == 13


class TestBestNodeHeap:
    """Which node a placement picks, asked of the one placement path
    ``policy.select(model.candidates(tag))`` (class name kept so the test
    ids stay stable)."""

    @staticmethod
    def pick(model, policy, tag=""):
        return policy.select(model.candidates(tag))

    def test_tie_broken_by_larger_name(self):
        model = make_awareness(("a", 2, 1.0), ("b", 2, 1.0))
        assert self.pick(model, CapacityAwarePolicy()) == "b"
        assert self.pick(model, LeastLoadedPolicy()) == "b"

    def test_tracks_mutations(self):
        model = make_awareness(("a", 3, 1.0), ("b", 3, 1.0))
        policy = LeastLoadedPolicy()
        model.assign("b", "j1")
        assert self.pick(model, policy) == "a"
        model.release("b", "j1")
        model.assign("a", "j1")
        model.assign("a", "j2")
        assert self.pick(model, policy) == "b"
        model.node_down("b")
        assert self.pick(model, policy) == "a"

    def test_returns_none_when_no_capacity(self):
        model = make_awareness(("a", 1, 1.0))
        model.assign("a", "j1")
        assert self.pick(model, CapacityAwarePolicy()) is None
        model.release("a", "j1")
        assert self.pick(model, CapacityAwarePolicy()) == "a"

    def test_respects_placement_tag(self):
        model = make_awareness(("a", 8, 9.0), ("g", 1, 0.1, ("gpu",)))
        assert self.pick(model, CapacityAwarePolicy(), "gpu") == "g"
        assert self.pick(model, CapacityAwarePolicy(), "nosuch") is None

    def test_forgotten_node_never_selected(self):
        model = make_awareness(("a", 2, 1.0), ("b", 2, 2.0))
        assert self.pick(model, CapacityAwarePolicy()) == "b"
        model.forget("b")
        assert self.pick(model, CapacityAwarePolicy()) == "a"
