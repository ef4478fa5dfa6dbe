"""The navigator considers what changed, not what exists.

Count-based (host-independent) bounds on how many tasks ``navigate``
evaluates, the agenda's consideration-order contract, the O(1)
``Frame.complete()`` against a direct walk, and the two cases where a
task must *not* leave the agenda. The whole-instance scan the agenda
replaced lives on in ``tests/navigation_oracle.py`` as the reference.
"""

from unittest import mock

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer, ProgramRegistry, ProgramResult,
)
from repro.core.engine.instance import ProcessInstance
from repro.core.engine.operator_console import OperatorConsole
from repro.core.ocr.parser import parse_ocr
from repro.errors import ActivityFailure
from repro.faults.chaos import CampaignConfig, default_darwin, run_campaign
from repro.processes.all_vs_all import install_all_vs_all
from repro.shard import ShardedConsole, ShardedControlPlane

from ..conftest import constant_program, make_inline_server
from ..navigation_oracle import navigation_oracle, walk_complete
from ..progress_oracle import walk_progress

FLAT_FAN = """
PROCESS Fan
  INPUT items
  PARALLEL Each
    FOREACH wb.items AS e
    ACTIVITY Body
      PROGRAM t.ok
    END
  END
END
"""


def considered(server) -> int:
    return server.obs.metrics.counter("navigator_considered")


class TestEvaluationCounts:
    @pytest.mark.parametrize("width", [32, 64, 128, 256])
    def test_flat_parallel_is_linear_in_width(self, width):
        """W bodies over four slots: the scan re-evaluated every waiting
        body on every completion (471 / 1 959 / 8 007 / 32 391 evaluations
        at these widths). One frame holds them all, so the agenda has to
        work inside a frame to get this shape right."""
        server, env = make_inline_server(
            {"t.ok": constant_program({"v": 1})}, nodes={"n": 4})
        server.define_template_ocr(FLAT_FAN)
        iid = server.launch("Fan", {"items": list(range(width))})
        env.run_instance(iid)
        assert server.instance(iid).status == "completed"
        assert considered(server) <= 3 * width + 16

    def test_all_vs_all_evaluations_per_navigation(self):
        """64 two-step subprocesses under one parallel task: 459
        evaluations per navigation under the scan at granularity 256."""
        kernel = SimKernel(seed=5)
        cluster = SimulatedCluster(kernel, uniform(4, cpus=2),
                                   execution_noise=0.0)
        server = BioOperaServer(seed=5)
        server.attach_environment(cluster)
        darwin = default_darwin()
        install_all_vs_all(server, darwin)
        iid = server.launch("all_vs_all", {
            "db_name": darwin.profile.name, "granularity": 64,
        })
        assert cluster.run_until_instance_done(iid) == "completed"
        navigations = server.obs.metrics.counter("navigations")
        assert navigations > 64
        assert considered(server) / navigations <= 8

    def test_counter_reaches_both_consoles(self):
        server, env = make_inline_server(
            {"t.ok": constant_program({"v": 1})})
        server.define_template_ocr(FLAT_FAN)
        env.run_instance(server.launch("Fan", {"items": [1, 2]}))
        counters = OperatorConsole(server).metrics_snapshot()["counters"]
        assert counters["navigator_considered"] == considered(server) > 0
        assert counters["dispatch_examined"] >= counters["placements"] > 0

        registry = ProgramRegistry()
        registry.register("t.ok", constant_program({"v": 1}))
        plane = ShardedControlPlane(
            SimKernel(seed=3), shards=2, registry=registry,
            templates=[parse_ocr(FLAT_FAN)], dispatch_overhead=0.05)
        requests = [plane.launch("tenant", "Fan", {"items": [1, 2]})
                    for _ in range(4)]
        plane.drain_requests(horizon=1e6)
        plane.run_until(
            lambda: all(plane.instance(r.result).terminal
                        for r in requests), horizon=1e6)
        totals = ShardedConsole(plane).metrics_snapshot()["total_counters"]
        assert totals["navigator_considered"] > 0
        assert totals["navigator_considered"] >= totals["navigations"]
        assert totals["dispatch_examined"] >= totals["placements"] > 0


GRAPH = """
PROCESS Order
  ACTIVITY A
    PROGRAM t.ok
  END
  ACTIVITY B
    PROGRAM t.ok
  END
  BLOCK Inner
    ACTIVITY C
      PROGRAM t.ok
    END
    ACTIVITY D
      PROGRAM t.ok
    END
  END
  ACTIVITY E
    PROGRAM t.ok
  END
END
"""


class TestConsiderationOrder:
    """(frame creation order, task order within the frame); a task woken
    during a pass is taken by that pass only if a scan would still have
    reached it; frames created during a pass wait for the next one."""

    @staticmethod
    def instance():
        template = parse_ocr(GRAPH)
        instance = ProcessInstance("pi", lambda name, version: template)
        instance.apply({"type": "instance_created", "time": 0.0,
                        "template_name": "Order", "version": 1,
                        "inputs": {}})
        instance.apply({"type": "instance_started", "time": 0.0})
        return instance

    @staticmethod
    def paths(taken):
        return [state.path for _frame, state in taken]

    def test_a_new_frame_puts_its_tasks_on_in_task_order(self):
        instance = self.instance()
        assert self.paths(instance.agenda_pass()) == [
            "A", "B", "Inner", "E"]
        assert self.paths(instance.agenda_pass()) == []  # taken is taken

    def test_woken_ahead_is_this_pass_woken_behind_is_the_next(self):
        instance = self.instance()
        list(instance.agenda_pass())
        root = instance.frames[""]
        instance.wake(root, root.states["B"])
        first = []
        for frame, state in instance.agenda_pass():
            first.append(state.path)
            if state.path == "B":
                instance.wake(root, root.states["E"])  # ahead of B
                instance.wake(root, root.states["A"])  # behind B
                instance.wake(root, root.states["B"])  # B itself: behind
        assert first == ["B", "E"]
        assert self.paths(instance.agenda_pass()) == ["A", "B"]

    def test_a_frame_created_during_a_pass_waits_for_the_next(self):
        instance = self.instance()
        first = []
        for frame, state in instance.agenda_pass():
            first.append(state.path)
            if state.path == "Inner":
                instance.apply({"type": "block_started", "time": 1.0,
                                "path": "Inner"})
        assert first == ["A", "B", "Inner", "E"]
        assert self.paths(instance.agenda_pass()) == ["Inner/C", "Inner/D"]

    def test_a_dropped_frame_takes_its_tasks_off(self):
        instance = self.instance()
        instance.apply({"type": "block_started", "time": 1.0,
                        "path": "Inner"})
        instance.apply({"type": "task_reset", "time": 2.0, "path": "Inner",
                        "reason": "test"})
        # the reset re-opened the instance: every live inactive task is
        # up, in scan order, and nothing of the dropped frame
        assert self.paths(instance.agenda_pass()) == [
            "A", "B", "Inner", "E"]

    def test_drained_frames_come_deepest_first(self):
        instance = self.instance()
        instance.apply({"type": "block_started", "time": 1.0,
                        "path": "Inner"})
        for path in ("Inner/C", "Inner/D", "A", "B", "E"):
            instance.apply({"type": "task_skipped", "time": 2.0,
                            "path": path})
        assert [f.path for f in instance.drained_frames()] == ["Inner/"]
        instance.apply({"type": "task_completed", "time": 3.0,
                        "path": "Inner", "outputs": {}})
        assert [f.path for f in instance.drained_frames()] == [""]


MIXED = """
PROCESS Mixed
  INPUT items
  INPUT nothing OPTIONAL
  ACTIVITY Start
    PROGRAM t.ok
  END
  ACTIVITY Never
    PROGRAM t.ok
  END
  ACTIVITY AfterNever
    PROGRAM t.ok
  END
  ACTIVITY Shrug
    PROGRAM t.bad
    ON_FAILURE IGNORE
  END
  PARALLEL Each
    FOREACH wb.items AS e
    ACTIVITY Body
      PROGRAM t.flaky
      ON_FAILURE RETRY 2 THEN IGNORE
    END
  END
  BLOCK Empty
    ACTIVITY Dead
      PROGRAM t.ok
    END
  END
  ACTIVITY Last
    PROGRAM t.ok
  END
  CONNECT Start -> Never WHEN [DEFINED(wb.nothing)]
  CONNECT Never -> AfterNever
  CONNECT Never -> Empty
  CONNECT Shrug -> Each
  CONNECT Each -> Last
END
"""


class TestFrameCompleteCounter:
    def test_complete_agrees_with_a_walk_after_every_event(self):
        """Over a run with skipped branches (dead-path elimination down to
        a block), IGNORE-handled failures, retries, and an operator
        ``task_reset`` of an expanded parallel task."""
        def flaky(inputs, ctx):
            if ctx.attempt % 2:
                raise ActivityFailure("program-error", "odd attempts fail")
            return ProgramResult({"v": ctx.attempt}, 0.1)

        def bad(inputs, ctx):
            raise ActivityFailure("program-error", "always")

        apply = ProcessInstance.apply
        seen = set()

        def apply_then_walk(instance, event):
            apply(instance, event)
            seen.add(event["type"])
            for frame in instance.frames.values():
                assert frame.complete() == walk_complete(frame), (
                    f"{frame!r} after {event}")
                assert frame.open == sum(
                    not state.terminal for state in frame.states.values())
            assert instance.progress() == walk_progress(instance), (
                f"after {event}")

        server, env = make_inline_server({
            "t.ok": constant_program({"v": 1}), "t.flaky": flaky,
            "t.bad": bad,
        }, nodes={"n": 2})
        server.define_template_ocr(MIXED)
        with mock.patch.object(ProcessInstance, "apply", apply_then_walk), \
                navigation_oracle():
            iid = server.launch("Mixed", {"items": [1, 2, 3]})
            for _ in range(6):
                env.step()
            server.restart_task(iid, "Each")
            env.run_instance(iid)
            server.restart_task(iid, "Shrug")  # reopens a finished instance
            env.run_instance(iid)
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert instance.find_state("Empty").status == "skipped"
        assert {"task_reset", "task_skipped", "task_failed",
                "parallel_expanded"} <= seen


RACE = """
PROCESS Race
  ACTIVITY Set
    PROGRAM t.one
    MAP v -> x
  END
  ACTIVITY Unset
    PROGRAM t.{unset}
    MAP v -> x
  END
  ACTIVITY Slow
    PROGRAM t.one
  END
  ACTIVITY Target
    PROGRAM t.one
  END
  CONNECT Set -> Target WHEN [wb.x > 0]
  {second}
END
"""


class TestVolatileDecisionsStayOnTheAgenda:
    """A decision that read whiteboard data has no exact wake-up: any
    completion may rewrite the data. The scan re-decided such a task on
    every pass; so does the agenda, by never parking it."""

    def run(self, unset, second, slots):
        programs = {
            "t.one": constant_program({"v": 1}),
            "t.zero": constant_program({"v": 0}),
            "t.text": constant_program({"v": "one"}),
        }
        server, env = make_inline_server(programs, nodes={"n": slots})
        server.define_template_ocr(RACE.format(unset=unset, second=second))
        with navigation_oracle():
            iid = server.launch("Race")
            env.run_instance(iid)
        events = [(event["type"], event.get("path"))
                  for event in server.store.instances.events(iid)]
        return server.instance(iid), events

    def test_queued_task_is_skipped_when_its_condition_turns_false(self):
        """Target is queued behind Unset on the only slot when Unset
        rewrites x to 0: its connector no longer fires, and the next pass
        skips it although its job is still queued (dispatch then vetoes
        the job)."""
        instance, _events = self.run("zero", "", slots=1)
        assert instance.status == "completed"
        assert instance.find_state("Target").status == "skipped"

    def test_waiting_task_fails_when_its_condition_starts_to_raise(self):
        """Target waits for Slow with its first connector already decided
        when Unset rewrites x to a string: ``wb.x > 0`` now raises, and
        the next pass fails Target without waiting for Slow."""
        instance, events = self.run(
            "text", "CONNECT Slow -> Target", slots=1)
        assert instance.status == "aborted"
        assert instance.find_state("Target").failure_reason == (
            "condition-error")
        assert ("task_dispatched", "Slow") not in events


class TestCampaignsUnderTheOracle:
    """Crashes, lease expiry, quarantine and (``rebalance``) live shard
    migration: after every navigation of a seeded chaos campaign, one more
    pass of the old scan still finds nothing to do."""

    @pytest.mark.parametrize("profile", ["mixed", "rebalance"])
    def test_seeds_0_to_9(self, profile):
        darwin = default_darwin()
        config = CampaignConfig(profile=profile)
        plain = run_campaign(0, darwin, config=config)
        with navigation_oracle() as checked:
            results = [run_campaign(seed, darwin, config=config)
                       for seed in range(10)]
        bad = [r for r in results if not r.ok]
        assert not bad, [(r.seed, r.status, r.violations[:2]) for r in bad]
        assert checked["navigations"] > 100
        assert sum(r.crashes for r in results) > 0
        # the oracle only looks: the campaign runs as it does without it
        assert results[0] == plain
