"""Figure 6: lifecycle of the all-vs-all on the non-shared cluster.

Anchors: two planned network outages (the process is suspended around
them); from day 25 a second processor is enabled on every node and
"BioOpera took advantage of the available CPU power immediately" —
availability and utilization jump from 8 to 16 together; utilization
otherwise tracks availability closely (dedicated cluster).
"""

from repro.cluster import DAY
from repro.workloads import reporting, scenarios

from .conftest import cached


def nonshared():
    return cached("table1_nonshared",
                  lambda: scenarios.nonshared_run(seed=0))


def test_fig6_lifecycle_chart(artifact):
    report = nonshared()
    artifact("fig6_lifecycle_nonshared", reporting.lifecycle_chart(report))

    series = report.trace_daily
    before_upgrade = [a for t, a, _b in series if 2 * DAY < t < 24 * DAY]
    after_upgrade = [a for t, a, _b in series if 26 * DAY < t < 34 * DAY]
    # 8 CPUs before day 25, 16 after
    assert before_upgrade and max(before_upgrade) <= 8.0
    assert after_upgrade and max(after_upgrade) == 16.0


def test_fig6_utilization_follows_upgrade_immediately():
    report = nonshared()
    busy_before = [b for t, _a, b in report.trace_daily
                   if 20 * DAY < t < 24 * DAY]
    busy_after = [b for t, _a, b in report.trace_daily
                  if 26 * DAY < t < 30 * DAY]
    assert busy_before and max(busy_before) <= 8.0
    assert busy_after and max(busy_after) > 12.0


def test_fig6_planned_outages_only(artifact):
    report = nonshared()
    artifact("fig6_events", "\n".join(
        f"day {t / DAY:5.1f}  {label}" for t, label in report.annotations
    ))
    labels = [label for _t, label in report.annotations]
    assert labels.count("planned network outage 1") == 1
    assert labels.count("planned network outage 2") == 1
    assert "OS configuration change (2nd CPU)" in labels
    # exactly the four planned operator actions (suspend/resume x2)
    assert report.manual_interventions == 4
    assert report.status == "completed"
