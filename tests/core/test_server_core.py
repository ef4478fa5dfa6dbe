"""The server core's shared bodies and the seams of its four policies.

A step the core takes on several paths has one body. These tests pin what
that buys: a refused PEC report is refused alike on the completion and
the failure path; a pending memo key ends with its job however the job
ends; and installing, re-enabling and recovering the durable policies
keeps exactly what was configured.
"""

import itertools

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer, InlineEnvironment, ProgramRegistry, ProgramResult,
    events as ev,
)

OCR = "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND"


def _registry():
    registry = ProgramRegistry()
    registry.register(
        "w.u", lambda inputs, ctx: ProgramResult({"x": 1}, 50.0))
    return registry


def _in_flight(memo=False, leases=False, seed=61):
    """A two-node cluster whose one instance has its one job in flight."""
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(2, cpus=1),
                               execution_noise=0.0)
    server = BioOperaServer(registry=_registry())
    server.attach_environment(cluster)
    if memo:
        server.enable_memoization()
    if leases:
        server.enable_leases(900.0, 4.0)
    server.define_template_ocr(OCR)
    server.launch("P")
    kernel.run(until=5.0)
    (job, node), = server.dispatcher.in_flight.values()
    return kernel, cluster, server, job, node


#: refusal kind -> the counter it books
REFUSALS = {
    "stale": "stale_results_ignored",
    "wrong-epoch": "stale_epoch_reports",
    "unknown-job": "stale_results_ignored",
    "wrong-attempt": "stale_results_ignored",
}


def _refuse(kind, server, job, node):
    """Make ``job``'s report one the server must refuse; returns the
    ``(job_id, epoch)`` to report it with."""
    if kind == "stale":  # the job was killed; its report comes late
        server.restart_task(job.instance_id, job.task_path)
        return job.job_id, None
    if kind == "wrong-epoch":
        return job.job_id, server.epoch + 7
    if kind == "unknown-job":
        return "no-such-job", None
    # wrong-attempt: the attempt ended here before its report came
    server.emit(server.instance(job.instance_id), ev.task_failed(
        job.task_path, "node-crash", node, job.attempt, server.clock()))
    return job.job_id, None


class TestReportAcceptance:
    @pytest.mark.parametrize("kind", sorted(REFUSALS))
    def test_a_refused_report_is_refused_alike_on_both_paths(self, kind):
        """Same counters, one pump, no event: completion or failure."""
        booked = []
        for path in ("completion", "failure"):
            _kernel, _cluster, server, job, node = _in_flight()
            job_id, epoch = _refuse(kind, server, job, node)
            before = dict(server.metrics)
            events = server.store.instances.event_count(job.instance_id)
            pumps = []
            pump = server.dispatcher.pump
            server.dispatcher.pump = lambda: pumps.append(pump())
            if path == "completion":
                server.on_job_completed(job_id, {"x": 1}, 1.0, node,
                                        epoch=epoch)
            else:
                server.on_job_failed(job_id, "io-error", node, epoch=epoch)
            booked.append({name: count - before.get(name, 0)
                           for name, count in server.metrics.items()
                           if count != before.get(name, 0)})
            assert len(pumps) == 1
            assert (server.store.instances.event_count(job.instance_id)
                    == events)
        assert booked[0] == booked[1]
        assert booked[0][REFUSALS[kind]] == 1
        assert "jobs_completed" not in booked[0]
        assert "jobs_failed" not in booked[0]


class TestMemoKeysEndWithTheirJob:
    """With memoisation on, a job's pending content key is forgotten
    however the job ends, not only when its PEC reports."""

    def test_a_node_crash_and_its_retry_leave_no_pending_key(self):
        kernel, cluster, server, job, node = _in_flight(memo=True)
        assert list(server.memo.pending) == [
            (job.instance_id, job.task_path, job.attempt)]
        cluster.crash_node(node)
        assert cluster.run_until_instance_done(job.instance_id) == "completed"
        state = server.instance(job.instance_id).find_state(job.task_path)
        assert state.attempts >= 2
        assert server.memo.pending == {}

    def test_an_abort_leaves_no_pending_key(self):
        _kernel, _cluster, server, job, _node = _in_flight(memo=True)
        server.abort(job.instance_id)
        assert server.memo.pending == {}


#: policy attribute -> (enable verb, the arguments it is enabled with)
ENABLE = {
    "leases": ("enable_leases", (120.0, 2.0)),
    "quarantine": ("enable_quarantine", (2, 50.0, 10.0)),
    "memo": ("enable_memoization", ()),
    "migration": ("enable_migration", (0.5, 3.0, 4)),
}
SUBSETS = [subset for size in range(len(ENABLE) + 1)
           for subset in itertools.combinations(sorted(ENABLE), size)]


class TestPolicyInstallation:
    def test_policy_settings_are_the_four_policy_classes(self):
        assert sorted(policy.ATTRIBUTE for policy
                      in BioOperaServer.POLICY_SETTINGS) == sorted(ENABLE)

    @pytest.mark.parametrize("subset", SUBSETS,
                             ids=lambda subset: "+".join(subset) or "none")
    def test_recovery_installs_exactly_the_stored_subset(self, subset):
        server = BioOperaServer(registry=_registry())
        server.attach_environment(InlineEnvironment())
        for name in subset:
            verb, args = ENABLE[name]
            getattr(server, verb)(*args)
        recovered = BioOperaServer.recover(
            server.store, _registry(), environment=InlineEnvironment())
        for policy in BioOperaServer.POLICY_SETTINGS:
            installed = getattr(recovered, policy.ATTRIBUTE)
            if policy.ATTRIBUTE in subset:
                assert type(installed) is policy
                assert installed.args == ENABLE[policy.ATTRIBUTE][1]
            else:
                assert installed is None

    def test_reenabling_leases_keeps_the_live_leases(self):
        _kernel, _cluster, server, job, _node = _in_flight(leases=True)
        policy = server.leases
        assert list(policy.held) == [job.job_id]
        server.enable_leases(120.0, 0.0)
        assert server.leases is policy
        assert list(policy.held) == [job.job_id]
        assert policy.args == (120.0, 0.0)
        assert server.store.configuration.setting("lease_config") == [
            120.0, 0.0]

    def test_reenabling_quarantine_keeps_the_strikes(self):
        _kernel, _cluster, server, _job, _node = _in_flight()
        server.enable_quarantine(3, 100.0, 40.0)
        policy = server.quarantine
        policy.strike("node001", 10.0)
        server.enable_quarantine(2, 100.0, 40.0)
        assert server.quarantine is policy
        assert policy.strikes == {"node001": [10.0]}
        policy.strike("node001", 20.0)  # the new threshold's second strike
        assert server.awareness.node("node001").quarantined
