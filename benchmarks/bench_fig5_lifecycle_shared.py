"""Figure 5: lifecycle of the all-vs-all on the shared cluster.

Processor availability vs. utilization over ~40 days, with the ten
labelled events of Section 5.4. Anchors: availability ranges between 0
(total cluster failure, event 7) and 33; utilization is a fraction of
availability (other users have priority); the run survives every event
with at most a handful of manual interventions; actual computing time is
a small fraction of the total WALL time.
"""

from repro.cluster import DAY
from repro.workloads import reporting, scenarios

from .conftest import cached


def shared():
    return cached("table1_shared", lambda: scenarios.shared_run(seed=0))


def test_fig5_lifecycle_chart(artifact):
    report = shared()
    artifact("fig5_lifecycle_shared", reporting.lifecycle_chart(report))
    artifact("fig5_events", "\n".join(
        f"day {t / DAY:5.1f}  {label}" for t, label in report.annotations
    ))

    availability = [a for _t, a, _b in report.trace_daily]
    utilization = [b for _t, _a, b in report.trace_daily]
    # availability spans 0 (event 7: whole-cluster failure) .. 33
    assert max(availability) == 33.0
    assert min(availability[1:-1]) == 0.0
    # utilization never exceeds availability; on average it is well below
    assert all(b <= a + 1e-9 for a, b in zip(availability, utilization)
               if a > 0)
    assert 0.2 <= report.utilization_fraction <= 0.85


def test_fig5_event_coverage():
    report = shared()
    labels = " | ".join(label for _t, label in report.annotations)
    # the ten reconstructed events all appear in the timeline
    for fragment in (
        "other user needs cluster",        # 1
        "BioOpera server crash",           # 2
        "cluster failure",                 # 3 and 7
        "cluster busy with other jobs",    # 4
        "disk space shortage",             # 5
        "resume after disk fixed",         # 6
        "server maintenance",              # 8
        "server restarted",                # 9
        "TEUs fail to report",             # 10
    ):
        assert fragment in labels, f"missing event: {fragment}"


def test_fig5_failure_classes_survived(artifact):
    report = shared()
    artifact("fig5_failures", "\n".join(
        f"{reason:<18} {count}"
        for reason, count in sorted(report.failure_reasons.items())
    ))
    assert report.status == "completed"
    # the infrastructure failure classes of the narrative all occurred
    for reason in ("node-crash", "server-recovery", "disk-full", "io-error"):
        assert report.failure_reasons.get(reason, 0) > 0, reason
    # and despite them, rework stayed bounded
    assert report.jobs_dispatched <= 2.0 * report.jobs_completed
