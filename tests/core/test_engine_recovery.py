"""Server crash recovery, replay, suspend/resume, operator restarts."""

import pytest

from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
    recovery_report,
    replay_instance,
    verify_log,
    work_lost_to_failures,
)
from repro.errors import InvalidStateError

from ..conftest import make_inline_server

CHAIN = """
PROCESS Chain
  OUTPUT v = C.v
  ACTIVITY A
    PROGRAM t.a
  END
  ACTIVITY B
    PROGRAM t.b
    IN x = A.v
  END
  ACTIVITY C
    PROGRAM t.c
    IN x = B.v
  END
  CONNECT A -> B
  CONNECT B -> C
END
"""


def chain_programs(log=None):
    def step(name, value):
        def fn(inputs, ctx):
            if log is not None:
                log.append(name)
            return ProgramResult({"v": value}, 1.0)
        return fn

    return {"t.a": step("a", 1), "t.b": step("b", 2), "t.c": step("c", 3)}


class TestCrashRecovery:
    def crash_at(self, steps_before_crash, log=None):
        registry = ProgramRegistry()
        for name, fn in chain_programs(log).items():
            registry.register(name, fn)
        server = BioOperaServer(registry=registry)
        env = InlineEnvironment()
        server.attach_environment(env)
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        for _ in range(steps_before_crash):
            env.step()
        server.crash()
        env2 = InlineEnvironment()
        recovered = BioOperaServer.recover(server.store, registry,
                                           environment=env2)
        return recovered, env2, iid

    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_crash_at_any_point_still_completes(self, steps):
        server, env, iid = self.crash_at(steps)
        env.run_instance(iid)
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert instance.outputs == {"v": 3}

    def test_completed_work_is_not_redone(self):
        log = []
        server, env, iid = self.crash_at(2, log=log)  # a, b completed
        env.run_instance(iid)
        # a and b ran exactly once; only c (in flight at crash) repeats
        assert log.count("a") == 1
        assert log.count("b") == 1

    def test_inflight_task_marked_server_recovery(self):
        server, _env, iid = self.crash_at(1)
        events = list(server.store.instances.events(iid))
        recovery_failures = [
            e for e in events
            if e["type"] == "task_failed" and e["reason"] == "server-recovery"
        ]
        assert len(recovery_failures) == 1

    def test_completed_instance_untouched_by_recovery(self):
        registry = ProgramRegistry()
        for name, fn in chain_programs().items():
            registry.register(name, fn)
        server = BioOperaServer(registry=registry)
        env = InlineEnvironment()
        server.attach_environment(env)
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        events_before = server.store.instances.event_count(iid)
        recovered = BioOperaServer.recover(
            server.store, registry, environment=InlineEnvironment())
        assert recovered.instance(iid).status == "completed"
        assert recovered.store.instances.event_count(iid) == events_before

    def test_restart_after_completion_survives_a_crash(self):
        """A task reset reopens a completed instance. Recovery reads that
        from the log, not from a status stored beside it: B's second
        attempt, dispatched when the server died, is re-driven and the
        instance completes instead of waiting on B forever."""
        log = []
        server, env = make_inline_server(chain_programs(log))
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        server.restart_task(iid, "B")
        assert server.instance(iid).find_state("B").status == "dispatched"
        server.crash()
        env2 = InlineEnvironment()
        recovered = BioOperaServer.recover(server.store, server.registry,
                                           environment=env2)
        env2.run_until_idle()
        instance = recovered.instance(iid)
        assert instance.status == "completed"
        assert log.count("b") == 2

    def test_double_crash_recovery(self):
        server, env, iid = self.crash_at(1)
        env.step()
        server.crash()
        env3 = InlineEnvironment()
        final = BioOperaServer.recover(server.store, server.registry,
                                       environment=env3)
        env3.run_instance(iid)
        assert final.instance(iid).outputs == {"v": 3}

    def test_disk_backed_recovery(self, tmp_path):
        from repro.store import OperaStore

        registry = ProgramRegistry()
        for name, fn in chain_programs().items():
            registry.register(name, fn)
        store = OperaStore(str(tmp_path / "opera"))
        server = BioOperaServer(store=store, registry=registry)
        env = InlineEnvironment()
        server.attach_environment(env)
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.step()
        # hard stop: reopen the store from disk, as after a host reboot
        reopened = store.reopen()
        env2 = InlineEnvironment()
        recovered = BioOperaServer.recover(reopened, registry,
                                           environment=env2)
        env2.run_instance(iid)
        assert recovered.instance(iid).outputs == {"v": 3}
        reopened.close()

    def test_recovery_report_shows_bounded_cost(self, tmp_path):
        from repro.store import OperaStore

        registry = ProgramRegistry()
        for name, fn in chain_programs().items():
            registry.register(name, fn)
        store = OperaStore(str(tmp_path / "opera"))
        server = BioOperaServer(store=store, registry=registry)
        env = InlineEnvironment()
        server.attach_environment(env)
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        store.checkpoint()
        reopened = store.reopen()
        report = recovery_report(reopened)
        # checkpointed just before the reopen: the chain is all there is
        # to replay, and an event log never supersedes enough to rewrite
        assert report["checkpoint_position"] > 0
        assert report["records_replayed"] == report["checkpoint_position"]
        assert reopened.kv.wal_records == 0
        assert report["repairs"] == []
        assert report["instances"] == 1
        assert report["events_by_instance"][iid] \
            == reopened.instances.event_count(iid)
        reopened.close()


class TestReplay:
    def test_replay_matches_live_state(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        live = server.instance(iid)
        replayed = replay_instance(server.store, iid, server._resolver)
        assert replayed.status == live.status
        assert replayed.outputs == live.outputs
        assert replayed.progress() == live.progress()
        for state in live.iter_states():
            twin = replayed.find_state(state.path)
            assert twin.status == state.status
            assert twin.outputs == state.outputs
            assert twin.cost == state.cost

    def test_verify_log_clean(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        assert verify_log(server.store, iid, server._resolver) == []

    def test_verify_log_detects_missing_creation(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        server.store.instances.create("bogus", {})
        server.store.instances.append_event("bogus", {
            "type": "task_completed", "time": 0.0, "path": "X",
            "outputs": {}, "cost": 0.0, "node": "",
        })
        anomalies = verify_log(server.store, "bogus", server._resolver)
        assert anomalies


class TestSuspendResume:
    def test_suspend_stops_new_dispatch(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.step()  # A completes, B queued/dispatched... B executes next
        server.suspend(iid, "operator")
        # drain whatever was already submitted
        env.run_until_idle()
        instance = server.instance(iid)
        assert instance.status == "suspended"
        assert instance.find_state("C").status == "inactive"
        server.resume(iid)
        env.run_instance(iid)
        assert server.instance(iid).status == "completed"

    def test_suspend_terminal_instance_rejected(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        with pytest.raises(InvalidStateError):
            server.suspend(iid)

    def test_resume_running_instance_rejected(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        with pytest.raises(InvalidStateError):
            server.resume(iid)

    def test_suspension_survives_recovery(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.step()
        server.suspend(iid)
        env.run_until_idle()
        server.crash()
        env2 = InlineEnvironment()
        recovered = BioOperaServer.recover(server.store, server.registry,
                                           environment=env2)
        assert recovered.instance(iid).status == "suspended"
        env2.run_until_idle()
        assert recovered.instance(iid).status == "suspended"
        recovered.resume(iid)
        env2.run_instance(iid)
        assert recovered.instance(iid).status == "completed"


class TestOperatorRestart:
    def test_restart_completed_task_reruns_downstream_consistently(self):
        log = []
        server, env = make_inline_server(chain_programs(log))
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        assert log == ["a", "b", "c"]
        # operator decides B's output was wrong and re-runs it
        server.restart_task(iid, "B")
        env.run_until_idle()
        instance = server.instance(iid)
        assert instance.find_state("B").status == "completed"
        assert log.count("b") == 2

    def test_restart_of_a_running_task_reruns_it(self):
        """The in-flight job is killed with the reset: left alone, its
        live dispatcher key blocked the re-queue and its stale result
        re-queued nothing, so the instance hung with nothing to run."""
        log = []
        server, env = make_inline_server(chain_programs(log))
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        server.restart_task(iid, "A")  # A is dispatched, not yet run
        env.run_until_idle()
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert log == ["a", "b", "c"]  # the killed attempt never ran
        assert instance.find_state("A").attempts == 2
        assert server.metrics["stale_results_ignored"] == 0

    def test_abort_cancels_queued_work(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        server.abort(iid, "not needed")
        env.run_until_idle()
        instance = server.instance(iid)
        assert instance.status == "aborted"
        assert instance.find_state("C").status == "inactive"

    def test_change_parameter_recorded(self):
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        server.change_parameter(iid, "tuning", 42)
        env.run_instance(iid)
        instance = server.instance(iid)
        assert instance.whiteboards[""].get("tuning") == 42
        events = [e["type"] for e in server.store.instances.events(iid)]
        assert "whiteboard_set" in events

    def test_change_parameter_on_an_ended_instance_is_refused(self):
        """An edit after the terminal event would read the instance as
        live again; restarting a task reopens it, then it may be edited."""
        server, env = make_inline_server(chain_programs())
        server.define_template_ocr(CHAIN)
        iid = server.launch("Chain")
        env.run_instance(iid)
        before = list(server.store.instances.events(iid))
        with pytest.raises(InvalidStateError, match="has ended"):
            server.change_parameter(iid, "tuning", 42)
        assert list(server.store.instances.events(iid)) == before
        server.restart_task(iid, "C")
        server.change_parameter(iid, "tuning", 42)
        assert list(server.store.instances.events(iid))[-1]["type"] \
            == "whiteboard_set"
        assert env.run_instance(iid) == "completed"


class TestWorkLossAccounting:
    def test_lost_work_measured_by_reason(self):
        from repro.errors import ActivityFailure

        calls = {"n": 0}

        def flaky(inputs, ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ActivityFailure("io-error", "first try lost")
            return ProgramResult({}, 1.0)

        server, env = make_inline_server({"t.f": flaky})
        server.define_template_ocr("""
        PROCESS P
          ACTIVITY A
            PROGRAM t.f
          END
        END
        """)
        iid = server.launch("P")
        env.run_instance(iid)
        lost = work_lost_to_failures(server.store, iid)
        assert set(lost) == {"io-error"}
        assert lost["io-error"] >= 0.0
