"""M1 — adaptive monitoring (Section 3.4).

Paper claim: "an adaptive strategy discarding 90% of the samples before
they are sent to the BioOpera server induces an average 3% error per
sample when we compare the load curve as seen by the server to the actual
load curve." The benchmark replays the two-cut-off algorithm and two
baselines over a week of synthetic per-node load, across several seeds.
"""

from repro.core.monitor.adaptive import (
    MonitorConfig,
    simulate_monitoring,
    synthetic_load_trace,
)
from repro.workloads.reporting import monitoring_table

from .conftest import cached

WEEK = 7 * 86400.0


def _compute():
    runs = {"adaptive": [], "fixed": [], "fixed-threshold": []}
    for seed in range(5):
        trace = synthetic_load_trace(WEEK, step=5.0, seed=seed)
        for strategy in runs:
            runs[strategy].append(simulate_monitoring(
                trace, MonitorConfig(), strategy))
    return runs


def _mean(values):
    return sum(values) / len(values)


def test_m1_adaptive_monitoring_claim(artifact):
    runs = cached("m1", _compute)
    flat = [run for batch in runs.values() for run in batch]
    artifact("m1_monitoring", monitoring_table(flat))

    discard = _mean([r.discard_fraction for r in runs["adaptive"]])
    error = _mean([r.mean_error for r in runs["adaptive"]])
    summary = (f"adaptive: discards {discard:.0%} of samples at "
               f"{error:.1%} mean per-sample error "
               f"(paper: ~90% discarded, ~3% error)")
    artifact("m1_summary", summary)
    assert discard >= 0.85
    assert error <= 0.05


def test_m1_network_traffic_reduction():
    runs = cached("m1", _compute)
    adaptive_messages = _mean([r.network_messages for r in runs["adaptive"]])
    fixed_messages = _mean([r.network_messages for r in runs["fixed"]])
    # an order of magnitude fewer messages than fixed-rate reporting
    assert adaptive_messages < fixed_messages / 10


def test_m1_accuracy_close_to_fixed_rate():
    runs = cached("m1", _compute)
    adaptive_error = _mean([r.mean_error for r in runs["adaptive"]])
    fixed_error = _mean([r.mean_error for r in runs["fixed"]])
    # "preserving a highly accurate view of the load"
    assert adaptive_error <= fixed_error + 0.04


def test_m1_both_cutoffs_contribute():
    """Ablation within the ablation: the sampling cut-off (interval
    adaptation) reduces samples taken; the reporting cut-off reduces
    messages. fixed-threshold isolates the latter."""
    runs = cached("m1", _compute)
    adaptive_samples = _mean([r.samples_taken for r in runs["adaptive"]])
    fixed_samples = _mean([r.samples_taken for r in runs["fixed"]])
    threshold_messages = _mean(
        [r.network_messages for r in runs["fixed-threshold"]])
    fixed_messages = _mean([r.network_messages for r in runs["fixed"]])
    assert adaptive_samples < fixed_samples / 3      # interval adaptation
    assert threshold_messages < fixed_messages / 2   # reporting cut-off
