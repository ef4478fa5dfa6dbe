"""Smart re-execution: minimal invalidated subgraph, memo accounting."""

import pytest

from repro.core.engine import BioOperaServer, InlineEnvironment
from repro.errors import InvalidStateError, StoreError, UnknownInstanceError
from repro.prov import execute_rerun, plan_rerun, rerun_report
from repro.store import codec

from .conftest import diamond_registry, diamond_server, run_diamond


class TestPlan:
    def test_changed_input_invalidates_only_its_branch(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        plan = plan_rerun(server.store, iid, changed_inputs={"b": 7})
        assert plan.stale_tasks == ["Join", "Right"]
        assert plan.memo_tasks == ["Left"]

    def test_task_ids_invalidate_the_task_and_downstream(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        plan = plan_rerun(server.store, iid, task_ids=["Left"])
        assert plan.stale_tasks == ["Join", "Left"]
        assert plan.memo_tasks == ["Right"]

    def test_unchanged_rerun_is_rejected(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        with pytest.raises(InvalidStateError):
            plan_rerun(server.store, iid)

    def test_unknown_task_is_a_typed_error(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        with pytest.raises(StoreError):
            plan_rerun(server.store, iid, task_ids=["Ghost"])

    def test_unknown_instance_is_a_typed_error(self):
        calls = []
        server, _env = diamond_server(calls)
        with pytest.raises(UnknownInstanceError):
            plan_rerun(server.store, "pi-999999", changed_inputs={"a": 1})


class TestExecution:
    def test_only_the_invalidated_subgraph_executes(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        calls.clear()
        handle = execute_rerun(server, iid, changed_inputs={"b": 7})
        env.run_instance(handle.new_instance_id)
        report = rerun_report(server.store, handle.new_instance_id)
        # Executed tasks == the predicted stale set; nothing else ran.
        assert report["executed"] == handle.plan.stale_tasks
        assert report["replayed"] == handle.plan.memo_tasks
        assert report["memo_hits"] == 1 and report["memo_misses"] == 2
        # The memoized branch's program never actually ran again.
        assert [name for name, _ in calls] == ["work", "combine"]
        assert calls[0][1] == {"x": 7}

    def test_outputs_byte_identical_to_full_rerun(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        handle = execute_rerun(server, iid, changed_inputs={"b": 7})
        env.run_instance(handle.new_instance_id)
        smart = server.instance(handle.new_instance_id).outputs
        plain, plain_env = diamond_server([])  # no memo cache: runs it all
        full_id = run_diamond(plain, plain_env, 1, 7)
        full = plain.instance(full_id).outputs
        assert codec.encode(smart) == codec.encode(full)

    def test_rerun_recorded_as_linked_provenance(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        handle = execute_rerun(server, iid, changed_inputs={"b": 7})
        env.run_instance(handle.new_instance_id)
        record = server.store.data.run(f"rerun/{handle.new_instance_id}")
        assert record["original_id"] == iid
        assert record["rerun_id"] == handle.new_instance_id
        assert record["stale_tasks"] == ["Join", "Right"]

    def test_forced_task_rerun_executes_despite_cached_result(self):
        """task_ids mode deletes the stale tasks' memo entries, so the
        forced tasks re-execute even though their inputs are unchanged."""
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        calls.clear()
        handle = execute_rerun(server, iid, task_ids=["Left"])
        env.run_instance(handle.new_instance_id)
        report = rerun_report(server.store, handle.new_instance_id)
        assert report["executed"] == ["Join", "Left"]
        assert report["replayed"] == ["Right"]
        outputs = server.instance(handle.new_instance_id).outputs
        assert outputs == server.instance(iid).outputs

    def test_memo_metrics_count_hits_and_misses(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        assert server.metrics["memo_misses"] == 3
        handle = execute_rerun(server, iid, changed_inputs={"b": 7})
        env.run_instance(handle.new_instance_id)
        assert server.metrics["memo_hits"] == 1
        assert server.metrics["memo_misses"] == 5


class TestDurability:
    def test_memo_config_survives_recovery(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        run_diamond(server, env, 1, 2)
        server.crash()
        store = server.store.simulate_crash()
        recovered = BioOperaServer.recover(
            store, diamond_registry(calls),
            environment=InlineEnvironment())
        assert recovered.memo is not None

    def test_rerun_on_recovered_server_replays_from_durable_cache(self):
        calls = []
        server, env = diamond_server(calls, memoize=True)
        iid = run_diamond(server, env, 1, 2)
        server.crash()
        store = server.store.simulate_crash()
        fresh_calls = []
        recovered = BioOperaServer.recover(
            store, diamond_registry(fresh_calls),
            environment=InlineEnvironment())
        handle = execute_rerun(recovered, iid, changed_inputs={"b": 7})
        recovered.environment.run_instance(handle.new_instance_id)
        report = rerun_report(store, handle.new_instance_id)
        assert report["replayed"] == ["Left"]
        assert report["executed"] == ["Join", "Right"]
