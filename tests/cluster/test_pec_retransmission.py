"""PEC report retransmission: short glitches recover, long outages lose.

The PEC retries an unsendable report ``PEC.REPORT_RETRIES`` times with capped
exponential backoff plus seeded jitter (paper: "TEUs failed to report"
during network trouble). These tests pin the bookkeeping on both sides of
that schedule:

* a report that fails during a short outage, retries, and succeeds must
  clear ``pending_reports`` and must NOT count as lost;
* a report dropped after the retry budget must increment ``reports_lost``
  and clear ``pending_reports``;
* the backoff schedule itself must grow, cap, jitter deterministically
  per seed, and follow ``PEC``'s four class constants.
"""

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.cluster.pec import PEC
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult


def _launch_single_activity(seed, **cluster_kw):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(kernel, uniform(1, cpus=1), **cluster_kw)
    registry = ProgramRegistry()
    registry.register("w.u", lambda inputs, ctx: ProgramResult({}, 10.0))
    server = BioOperaServer(registry=registry)
    server.attach_environment(cluster)
    server.define_template_ocr(
        "PROCESS P\n  ACTIVITY A\n    PROGRAM w.u\n  END\nEND")
    instance_id = server.launch("P")
    return kernel, cluster, server, instance_id


class TestReportRetransmission:
    def test_retry_success_clears_pending_without_loss(self):
        kernel, cluster, server, instance_id = _launch_single_activity(11)
        pec = cluster.pecs["node001"]
        # outage starts after the dispatch lands (~t=2.05) but before the
        # job completes (~t=12-14), so the first completion report fails
        # and a retry is scheduled
        kernel.run(until=5.0)
        outage = cluster.start_partition()  # every node
        kernel.run(until=60.0)
        assert pec.pending_reports, "completion report should be pending"
        assert pec.reports_lost == 0
        # outage ends before the retry budget is spent (worst case the
        # first retry fires at ~+75s, well within the remaining budget)
        cluster.heal_partition(outage)
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert pec.pending_reports == set()
        assert pec.reports_lost == 0
        assert server.metrics["jobs_completed"] >= 1

    def test_exhausted_retries_count_as_lost(self):
        kernel, cluster, server, instance_id = _launch_single_activity(12)
        pec = cluster.pecs["node001"]
        kernel.run(until=5.0)
        cluster.start_partition()  # every node
        # keep the outage up past the whole worst-case backoff schedule
        horizon = 5.0 + 20.0 + pec.max_retry_span() + 100.0
        kernel.run(until=horizon)
        assert pec.reports_lost == 1
        assert pec.pending_reports == set()

    def test_lost_report_recovered_by_failure_path(self):
        """After the report is lost, the node-down/up machinery re-runs the
        task; the instance must still complete once the outage ends."""
        kernel, cluster, server, instance_id = _launch_single_activity(13)
        pec = cluster.pecs["node001"]
        kernel.run(until=5.0)
        outage = cluster.start_partition()  # every node
        horizon = 5.0 + 20.0 + pec.max_retry_span() + 100.0
        kernel.run(until=horizon)
        assert pec.reports_lost == 1
        cluster.heal_partition(outage)
        status = cluster.run_until_instance_done(
            cluster.server.instances and instance_id)
        assert status == "completed"


class TestInFlightDrops:
    def test_report_killed_in_flight_feeds_retransmission(
            self, monkeypatch):
        """A report that the fabric loses AFTER the send (outage starts
        mid-flight) must feed the same retry path as a send-time failure:
        Network.send returned True, so only ``on_dropped`` can tell the
        PEC its report died."""
        monkeypatch.setattr(SimulatedCluster, "BASE_LATENCY", 5.0)
        monkeypatch.setattr(SimulatedCluster, "JITTER", 0.0)
        kernel, cluster, server, instance_id = _launch_single_activity(
            14, execution_noise=0.0)
        pec = cluster.pecs["node001"]
        # dispatch lands at t=7, job runs 10s, report sent at t=17 and
        # would arrive at t=22 — the outage opens while it is in flight
        kernel.run(until=19.0)
        outage = cluster.start_partition()  # every node
        kernel.run(until=30.0)
        assert cluster.network.inflight_killed >= 1
        assert pec.pending_reports, "killed report must be pending retry"
        assert pec.reports_lost == 0
        cluster.heal_partition(outage)
        status = cluster.run_until_instance_done(instance_id)
        assert status == "completed"
        assert pec.pending_reports == set()
        assert pec.reports_lost == 0


class TestBackoffSchedule:
    def test_delays_grow_exponentially_and_cap(self, monkeypatch):
        monkeypatch.setattr(PEC, "REPORT_RETRIES", 8)
        kernel = SimKernel(seed=7)
        cluster = SimulatedCluster(kernel, uniform(1, cpus=1))
        pec = cluster.pecs["node001"]
        delays = [pec.retry_delay(k) for k in range(8)]
        for k, delay in enumerate(delays):
            base = min(PEC.RETRY_CAP, PEC.RETRY_BASE * 2.0 ** k)
            assert base <= delay <= base * (1.0 + PEC.RETRY_JITTER)
        # the cap bounds every delay, jitter included
        assert max(delays) <= PEC.RETRY_CAP * (1.0 + PEC.RETRY_JITTER)
        # ignoring jitter, the schedule is non-decreasing up to the cap
        bases = [min(PEC.RETRY_CAP, PEC.RETRY_BASE * 2.0 ** k)
                 for k in range(8)]
        assert bases == sorted(bases)
        assert bases[-1] == PEC.RETRY_CAP

    def test_jitter_is_seeded_and_deterministic(self):
        def delays(seed):
            kernel = SimKernel(seed=seed)
            cluster = SimulatedCluster(kernel, uniform(1, cpus=1))
            return [cluster.pecs["node001"].retry_delay(k) for k in range(5)]

        assert delays(3) == delays(3)
        assert delays(3) != delays(4)

    def test_schedule_follows_the_class_constants(self, monkeypatch):
        assert (PEC.REPORT_RETRIES, PEC.RETRY_BASE, PEC.RETRY_CAP,
                PEC.RETRY_JITTER) == (3, 60.0, 960.0, 0.25)
        monkeypatch.setattr(PEC, "REPORT_RETRIES", 5)
        monkeypatch.setattr(PEC, "RETRY_BASE", 10.0)
        monkeypatch.setattr(PEC, "RETRY_CAP", 40.0)
        monkeypatch.setattr(PEC, "RETRY_JITTER", 0.0)
        kernel = SimKernel(seed=5)
        cluster = SimulatedCluster(kernel, uniform(2, cpus=1))
        for pec in cluster.pecs.values():
            assert pec.retry_delay(0) == 10.0
            assert pec.retry_delay(1) == 20.0
            assert pec.retry_delay(2) == 40.0
            assert pec.retry_delay(3) == 40.0  # capped
        assert cluster.pecs["node001"].max_retry_span() == 150.0
