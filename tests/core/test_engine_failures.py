"""Failure handlers, spheres of atomicity, compensation."""


from repro.core.engine import ProgramResult, events as ev
from repro.errors import ActivityFailure
from repro.faults import invariants

from ..conftest import constant_program, make_inline_server, run_process


def flaky_program(fail_times, reason="program-error"):
    """Fails the first ``fail_times`` calls, then succeeds."""
    calls = {"n": 0}

    def fn(inputs, ctx):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise ActivityFailure(reason, f"attempt {calls['n']}")
        return ProgramResult({"ok": True, "attempts": calls["n"]}, 1.0)

    fn.calls = calls
    return fn


def always_fail(inputs, ctx):
    raise ActivityFailure("program-error", "hopeless")


class TestRetry:
    def test_retry_until_success(self):
        flaky = flaky_program(2)
        server, _env, iid = run_process(
            """
            PROCESS P
              OUTPUT ok = A.ok
              ACTIVITY A
                PROGRAM t.flaky
                ON_FAILURE RETRY 3 THEN ABORT
              END
            END
            """,
            {"t.flaky": flaky},
        )
        assert server.instance(iid).status == "completed"
        assert flaky.calls["n"] == 3

    def test_retries_exhausted_aborts(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE RETRY 2 THEN ABORT
              END
            END
            """,
            {"t.bad": always_fail},
        )
        instance = server.instance(iid)
        assert instance.status == "aborted"
        # 1 initial + 2 retries
        assert instance.find_state("A").attempts == 3

    def test_python_exception_is_program_error(self):
        def broken(inputs, ctx):
            raise ValueError("unexpected bug")

        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.broken
                ON_FAILURE RETRY 1 THEN ABORT
              END
            END
            """,
            {"t.broken": broken},
        )
        assert server.instance(iid).status == "aborted"

    def test_failed_attempt_costs_not_counted_but_attempts_are(self):
        flaky = flaky_program(1)
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.flaky
              END
            END
            """,
            {"t.flaky": flaky},
        )
        state = server.instance(iid).find_state("A")
        assert state.attempts == 2
        assert state.program_failures == 1


class TestIgnore:
    def test_ignore_marks_completed(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE IGNORE
              END
              ACTIVITY B
                PROGRAM t.ok
              END
              CONNECT A -> B
            END
            """,
            {"t.bad": always_fail, "t.ok": constant_program({"v": 1})},
        )
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert instance.find_state("A").outputs["ignored"] is True
        assert instance.find_state("B").status == "completed"

    def test_retry_then_ignore(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE RETRY 2 THEN IGNORE
              END
            END
            """,
            {"t.bad": always_fail},
        )
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert instance.find_state("A").attempts == 3


class TestAlternative:
    def test_alternative_program_runs(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              OUTPUT v = A.v
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE ALTERNATIVE t.fallback
              END
            END
            """,
            {"t.bad": always_fail,
             "t.fallback": constant_program({"v": "plan-b"})},
        )
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert instance.outputs == {"v": "plan-b"}
        assert instance.find_state("A").program == "t.fallback"

    def test_retry_then_alternative(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              OUTPUT v = A.v
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE RETRY 1 THEN ALTERNATIVE t.fallback
              END
            END
            """,
            {"t.bad": always_fail,
             "t.fallback": constant_program({"v": "plan-b"})},
        )
        instance = server.instance(iid)
        assert instance.outputs == {"v": "plan-b"}
        assert instance.find_state("A").attempts == 3  # 1 + 1 retry + alt

    def test_failing_alternative_aborts(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE ALTERNATIVE t.also_bad
              END
            END
            """,
            {"t.bad": always_fail, "t.also_bad": always_fail},
        )
        assert server.instance(iid).status == "aborted"


class TestAbort:
    def test_abort_handler_aborts_first_failure(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE ABORT
              END
            END
            """,
            {"t.bad": always_fail},
        )
        instance = server.instance(iid)
        assert instance.status == "aborted"
        assert instance.find_state("A").attempts == 1

    def test_an_abort_ends_its_navigation_pass(self):
        """Three sibling tasks fail and one navigation pass takes them up
        (as a recovery's first pass would): A's handler aborts the
        instance, and the rest of the pass must neither abort it again
        (B) nor queue a retry for it (C)."""
        server, _env = make_inline_server({"t.bad": always_fail})
        server.define_template_ocr(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.bad
                ON_FAILURE ABORT
              END
              ACTIVITY B
                PROGRAM t.bad
                ON_FAILURE ABORT
              END
              ACTIVITY C
                PROGRAM t.bad
                ON_FAILURE RETRY 3 THEN ABORT
              END
            END
            """
        )
        iid = server.launch("P")
        instance = server.instance(iid)
        jobs = server.dispatcher.inflight_for_instance(iid)
        assert len(jobs) == 3
        for job_id in jobs:
            job, node = server.dispatcher.job_finished(job_id)
            server.emit(instance, ev.task_failed(
                job.task_path, "program-error", node, job.attempt,
                server.clock()))
        server.navigator.navigate(instance)
        assert instance.status == "aborted"
        assert instance.abort_reason == "task A failed: program-error"
        types = [e["type"] for e in server.store.instances.events(iid)]
        assert types.count(ev.INSTANCE_ABORTED) == 1
        assert server.dispatcher.instances_with_jobs() == set()
        assert invariants.check_server(server) == []

    def test_subprocess_failure_propagates(self):
        child = """
        PROCESS child
          ACTIVITY Inner
            PROGRAM t.bad
            ON_FAILURE ABORT
          END
        END
        """
        server, _env, iid = run_process(
            """
            PROCESS parent
              SUBPROCESS Sub
                TEMPLATE child
                ON_FAILURE ABORT
              END
            END
            """,
            {"t.bad": always_fail},
            extra_templates=(child,),
        )
        instance = server.instance(iid)
        assert instance.status == "aborted"
        assert "Sub" in instance.abort_reason

    def test_subprocess_failure_ignored_at_parent(self):
        child = """
        PROCESS child
          ACTIVITY Inner
            PROGRAM t.bad
            ON_FAILURE ABORT
          END
        END
        """
        server, _env, iid = run_process(
            """
            PROCESS parent
              SUBPROCESS Sub
                TEMPLATE child
                ON_FAILURE IGNORE
              END
              ACTIVITY After
                PROGRAM t.ok
              END
              CONNECT Sub -> After
            END
            """,
            {"t.bad": always_fail, "t.ok": constant_program({})},
            extra_templates=(child,),
        )
        assert server.instance(iid).status == "completed"

    def test_parallel_body_failure_fails_parallel(self):
        def fail_on_three(inputs, ctx):
            if inputs["e"] == 3:
                raise ActivityFailure("program-error", "bad element")
            return ProgramResult({"v": inputs["e"]}, 0.1)

        server, _env, iid = run_process(
            """
            PROCESS P
              INPUT items
              PARALLEL Fan
                FOREACH wb.items AS e
                ACTIVITY Body
                  PROGRAM t.maybe
                  ON_FAILURE RETRY 1 THEN ABORT
                END
              END
            END
            """,
            {"t.maybe": fail_on_three},
            inputs={"items": [1, 2, 3]},
        )
        assert server.instance(iid).status == "aborted"

    def test_parallel_body_failure_ignored_keeps_going(self):
        def fail_on_three(inputs, ctx):
            if inputs["e"] == 3:
                raise ActivityFailure("program-error", "bad element")
            return ProgramResult({"v": inputs["e"]}, 0.1)

        server, _env, iid = run_process(
            """
            PROCESS P
              INPUT items
              OUTPUT results = Fan.results
              PARALLEL Fan
                FOREACH wb.items AS e
                ACTIVITY Body
                  PROGRAM t.maybe
                  ON_FAILURE IGNORE
                END
              END
            END
            """,
            {"t.maybe": fail_on_three},
            inputs={"items": [1, 2, 3]},
        )
        instance = server.instance(iid)
        assert instance.status == "completed"
        results = instance.outputs["results"]
        assert results[0] == {"v": 1}
        assert results[2].get("ignored") is True


class TestSpheres:
    SOURCE = """
    PROCESS P
      ACTIVITY Setup
        PROGRAM t.setup
      END
      ACTIVITY Work
        PROGRAM t.work
        ON_FAILURE RETRY 1 THEN ABORT
      END
      CONNECT Setup -> Work
      SPHERE S
        TASKS Setup Work
        COMPENSATE Setup WITH t.undo
        %ON_ABORT%
      END
    END
    """

    def test_compensation_runs_on_abort(self):
        undone = []

        def undo(inputs, ctx):
            undone.append(inputs["task"])
            return ProgramResult({"removed": True}, 0.1)

        server, _env, iid = run_process(
            self.SOURCE.replace("%ON_ABORT%", ""),
            {"t.setup": constant_program({"artifact": "tmpdir"}),
             "t.work": always_fail,
             "t.undo": undo},
        )
        instance = server.instance(iid)
        assert instance.status == "aborted"
        assert "sphere S" in instance.abort_reason
        assert undone == ["Setup"]
        comp = instance.compensations
        assert [c["status"] for c in comp] == ["done"]

    def test_compensation_receives_task_outputs(self):
        captured = {}

        def undo(inputs, ctx):
            captured.update(inputs)
            return ProgramResult({}, 0.1)

        run_process(
            self.SOURCE.replace("%ON_ABORT%", ""),
            {"t.setup": constant_program({"artifact": "tmpdir"}),
             "t.work": always_fail,
             "t.undo": undo},
        )
        assert captured["outputs"] == {"artifact": "tmpdir"}

    def test_continue_policy_skips_failed_task(self):
        server, _env, iid = run_process(
            self.SOURCE.replace("%ON_ABORT%", "ON_ABORT continue"),
            {"t.setup": constant_program({}),
             "t.work": always_fail,
             "t.undo": constant_program({})},
        )
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert instance.find_state("Work").status == "skipped"

    def test_failure_outside_sphere_skips_compensation(self):
        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY Free
                PROGRAM t.bad
                ON_FAILURE ABORT
              END
              ACTIVITY Member
                PROGRAM t.ok
              END
              SPHERE S
                TASKS Member
                COMPENSATE Member WITH t.undo
              END
            END
            """,
            {"t.bad": always_fail, "t.ok": constant_program({}),
             "t.undo": constant_program({})},
        )
        instance = server.instance(iid)
        assert instance.status == "aborted"
        assert instance.compensations == []

    def test_multiple_compensations_reverse_order(self):
        undone = []

        def undo(inputs, ctx):
            undone.append(inputs["task"])
            return ProgramResult({}, 0.1)

        server, _env, iid = run_process(
            """
            PROCESS P
              ACTIVITY A
                PROGRAM t.ok
              END
              ACTIVITY B
                PROGRAM t.ok
              END
              ACTIVITY Bad
                PROGRAM t.bad
                ON_FAILURE ABORT
              END
              CONNECT A -> B
              CONNECT B -> Bad
              SPHERE S
                TASKS A B Bad
                COMPENSATE A WITH t.undo
                COMPENSATE B WITH t.undo
              END
            END
            """,
            {"t.ok": constant_program({}), "t.bad": always_fail,
             "t.undo": undo},
        )
        assert server.instance(iid).status == "aborted"
        assert undone == ["B", "A"]  # reverse completion order
