"""The dispatcher's cost contract, counted: a pump costs what it places.

``Dispatcher.pump`` looks only at queue heads: a tag without capacity is
parked with its queue untouched, and the jobs of a non-dispatchable
instance wait in ``_held`` and are asked about once per instance. These
tests bound the work in counts — the ``dispatch_examined`` counter and the
number of ``is_dispatchable`` calls — so they hold on any host, and they
drive the shape that hides a queue walk from a wave-drain benchmark: one
completion, one pump, against a deep queue on a handful of slots. The
linear scan this replaced lives on as ``SeedDispatcher`` in
``test_dispatch_equivalence.py``.
"""

import pytest

from repro.core.engine.dispatcher import Dispatcher, JobRequest
from repro.core.monitor.awareness import AwarenessModel
from repro.obs.metrics import MetricsRegistry


class _Harness:
    """A dispatcher on ``slots`` one-cpu nodes, with the server's three
    callbacks replaced by a submission log and a suspended-instance set."""

    def __init__(self, slots):
        awareness = AwarenessModel()
        for i in range(slots):
            awareness.register(f"n{i}", 1, 1.0, ())
        self.dispatcher = Dispatcher(awareness)
        self.metrics = self.dispatcher.metrics = MetricsRegistry()
        self.suspended = set()
        self.submitted = []          # job_ids, in submission order
        self.dispatchable_calls = 0
        self.dispatcher.wire(
            submit=lambda job, node: self.submitted.append(job.job_id),
            record_dispatch=lambda job, node: True,
            is_dispatchable=self._is_dispatchable,
        )

    def _is_dispatchable(self, instance_id):
        self.dispatchable_calls += 1
        return instance_id not in self.suspended

    def enqueue(self, instance, task="T", attempt=1):
        return self.dispatcher.enqueue(JobRequest(
            instance_id=instance, task_path=task, program="p", inputs={},
            attempt=attempt,
        ))

    def complete_one(self):
        """Oldest in-flight job finishes; the server pumps once."""
        self.dispatcher.job_finished(next(iter(self.dispatcher.in_flight)))
        return self.dispatcher.pump()

    @property
    def examined(self):
        return self.metrics.counter("dispatch_examined")


class TestPumpCostIsFlatInQueueDepth:
    @pytest.mark.parametrize("n", [500, 1000, 2000, 4000])
    def test_one_completion_per_pump(self, n):
        """Each completion frees one slot: the pump places one job and
        peeks at one it cannot place, however many wait behind it."""
        harness = _Harness(slots=8)
        for k in range(n):
            harness.enqueue(f"pi-{k}")
        harness.dispatcher.pump()
        while harness.dispatcher.in_flight:
            harness.complete_one()
        assert len(harness.submitted) == n
        assert harness.metrics.counter("placements") == n
        assert harness.examined <= 2 * n + 16

    def test_suspended_wide_instance_is_asked_about_once_per_pump(self):
        """256 jobs of a suspended instance queued ahead of 2 000 others:
        they move to ``_held`` once, and every later pump asks about the
        instance, not about its jobs."""
        width, n = 256, 2000
        harness = _Harness(slots=8)
        harness.suspended.add("wide")
        for k in range(width):
            harness.enqueue("wide", task=f"T{k:03d}")
        for k in range(n):
            harness.enqueue(f"pi-{k}")
        harness.dispatcher.pump()
        while len(harness.submitted) < n:
            harness.complete_one()
        assert harness.dispatchable_calls <= 4 * n + width
        assert harness.dispatcher.queue_length() == width
        assert all(harness.dispatcher.is_pending("wide", f"T{k:03d}")
                   for k in range(width))

        harness.suspended.clear()
        while harness.dispatcher.in_flight:
            harness.complete_one()
        assert harness.submitted[n:] == [
            f"wide:T{k:03d}:1" for k in range(width)]
        assert harness.dispatcher.queue_length() == 0


class TestHeldInstances:
    def _two_held(self):
        """Two slots busy, ``a`` (seq 3) and ``b`` (seq 5) held, x4 and x5
        queued behind them."""
        harness = _Harness(slots=2)
        harness.suspended.update({"a", "b"})
        for instance in ["x1", "x2", "a", "x3", "b", "x4", "x5"]:
            harness.enqueue(instance)
        assert harness.dispatcher.pump() == 2      # x1 x2; a held; x3 waits
        assert harness.complete_one() == 1         # x3; b held; x4 waits
        assert harness.submitted == ["x1:T:1", "x2:T:1", "x3:T:1"]
        return harness

    @pytest.mark.parametrize("release_order", [("a", "b"), ("b", "a")])
    def test_released_jobs_reenter_at_their_seq(self, release_order):
        harness = self._two_held()
        for instance in release_order:
            harness.suspended.discard(instance)
            assert harness.dispatcher.pump() == 0  # released, no capacity
        while harness.dispatcher.in_flight:
            harness.complete_one()
        assert harness.submitted[3:] == [
            "a:T:1", "b:T:1", "x4:T:1", "x5:T:1"]

    def test_held_jobs_stay_queued_and_pending(self):
        harness = self._two_held()
        assert harness.dispatcher.queue_length() == 4
        assert harness.dispatcher.is_pending("a", "T")
        assert not harness.enqueue("a")            # duplicate while held

    def test_dropped_and_requeued_while_held_does_not_resurrect(self):
        harness = self._two_held()
        assert harness.dispatcher.drop_instance("a") == 1
        assert harness.enqueue("a", attempt=2)     # behind x5 now
        harness.suspended.clear()
        while harness.dispatcher.in_flight:
            harness.complete_one()
        assert harness.submitted[3:] == [
            "b:T:1", "x4:T:1", "x5:T:1", "a:T:2"]
        assert harness.dispatcher.queue_length() == 0


class TestParkedTag:
    def test_parked_tag_wakes_past_tombstones(self):
        harness = _Harness(slots=1)
        for instance in ["x", "dead", "dead2", "live"]:
            harness.enqueue(instance)
        assert harness.dispatcher.pump() == 1      # x; tag parks on dead
        assert harness.dispatcher.drop_instance("dead") == 1
        assert harness.dispatcher.drop_instance("dead2") == 1
        before = harness.examined
        assert harness.dispatcher.pump() == 0      # still parked
        assert harness.examined == before
        assert harness.complete_one() == 1
        assert harness.submitted == ["x:T:1", "live:T:1"]
        assert harness.examined == before + 3      # two tombstones, one job
        assert harness.dispatcher.queue_length() == 0
