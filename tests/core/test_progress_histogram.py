"""``ProcessInstance.progress`` reads a kept histogram, not the states.

The walk it replaced lives on in ``tests/progress_oracle.py`` as the
reference; here it is held against the histogram over every event prefix
of an all-vs-all log with node failures in it (the reset / skip / retry
shapes ride ``TestFrameCompleteCounter`` in
``test_navigator_incremental.py``).
"""

from unittest import mock

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import BioOperaServer
from repro.core.engine.instance import ProcessInstance
from repro.core.engine.operator_console import OperatorConsole
from repro.faults.chaos import default_darwin
from repro.processes.all_vs_all import install_all_vs_all
from repro.store import codec

from ..conftest import constant_program, make_inline_server
from ..progress_oracle import progress_oracle, walk_progress
from .test_navigator_incremental import FLAT_FAN


def all_vs_all_with_failures():
    """An all-vs-all run that loses a node (and its jobs) mid-flight."""
    kernel = SimKernel(seed=5)
    cluster = SimulatedCluster(kernel, uniform(4, cpus=2),
                               execution_noise=0.0)
    server = BioOperaServer(seed=5)
    server.attach_environment(cluster)
    darwin = default_darwin()
    install_all_vs_all(server, darwin)
    iid = server.launch("all_vs_all", {
        "db_name": darwin.profile.name, "granularity": 16,
    })
    while len(server.instance(iid).dispatched_states()) < 4:
        assert kernel.step()
    cluster.crash_node("node002")
    kernel.run(until=kernel.now + 600)
    cluster.restore_node("node002")
    assert cluster.run_until_instance_done(iid) == "completed"
    return server, iid


class TestHistogramAgainstTheWalk:
    def test_every_event_prefix_of_an_all_vs_all_log(self):
        with progress_oracle() as live:
            server, iid = all_vs_all_with_failures()
        assert {"task_failed", "subprocess_started", "parallel_expanded",
                "task_completed"} <= live["types"]
        events = list(server.store.instances.events(iid))
        twin = ProcessInstance(iid, server._resolver)
        with progress_oracle() as replayed:
            twin.replay(iter(events))
        assert replayed["events"] == len(events) > 100
        assert codec.encode(twin.progress()) == codec.encode(
            walk_progress(server.instance(iid)))

    def test_an_empty_frame_leaves_no_zero_count_behind(self):
        server, env = make_inline_server(
            {"t.ok": constant_program({"v": 1})})
        server.define_template_ocr(FLAT_FAN)
        with progress_oracle() as checked:
            iid = server.launch("Fan", {"items": []})
            env.run_instance(iid)
        assert "parallel_expanded" in checked["types"]
        assert server.instance(iid).progress() == {"completed": 1}

    def test_progress_never_walks_the_states(self):
        server, iid = all_vs_all_with_failures()
        instance = server.instance(iid)
        expected = walk_progress(instance)
        with mock.patch.object(
                ProcessInstance, "iter_states",
                side_effect=AssertionError("progress walked the states")):
            assert instance.progress() == expected
            rows = OperatorConsole(server).list_instances()
        assert rows[0]["progress"] == expected

    def test_every_call_returns_a_dict_of_its_own(self):
        server, iid = all_vs_all_with_failures()
        instance = server.instance(iid)
        first = instance.progress()
        first["completed"] = -1
        first["planted"] = 1
        assert instance.progress() == walk_progress(instance)
