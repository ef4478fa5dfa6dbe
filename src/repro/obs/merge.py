"""Cross-shard observability merges and fairness math.

Every shard runs its own :class:`~repro.obs.ObservabilityHub`; the
sharded console and the end-to-end benchmark need plane-wide answers.
These helpers are pure functions over per-shard snapshots — no shared
mutable state, so they are safe to call while shards keep running.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence


def merge_counter_snapshots(snapshots: Iterable[Dict[str, float]]
                            ) -> Dict[str, float]:
    """Sum per-shard counter dicts into one plane-wide counter dict."""
    total: Dict[str, float] = {}
    for counters in snapshots:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    return dict(sorted(total.items()))


def merge_trace_summaries(summaries: Iterable[Dict[str, Any]]
                          ) -> Dict[str, Any]:
    """Merge per-shard ``TraceCollector.summary`` dicts into one plane-wide
    summary: plain numbers are summed; each timing stat (``queue_wait``,
    ``run_time``, ``report_delay``) gets ``count`` summed, ``mean``
    count-weighted and ``max`` max-ed, so a shard without samples
    contributes nothing."""
    merged: Dict[str, Any] = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, dict):
                stat = merged.setdefault(
                    key, {"count": 0, "mean": 0.0, "max": 0.0})
                count = stat["count"] + value["count"]
                if count:
                    stat["mean"] = (stat["mean"] * stat["count"]
                                    + value["mean"] * value["count"]) / count
                stat["count"] = count
                stat["max"] = max(stat["max"], value["max"])
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations.

    ``(Σx)² / (n · Σx²)`` — 1.0 when every tenant gets the same share,
    approaching ``1/n`` as one tenant takes everything. The fairness
    checks (``tests/shard/test_broker_fairness.py``, the ``burst_plane``
    benchmark workload) compute it over per-tenant completed-request
    throughput.
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    square_of_sum = sum(xs) ** 2
    sum_of_squares = sum(x * x for x in xs)
    if sum_of_squares == 0.0:
        return 1.0
    return square_of_sum / (len(xs) * sum_of_squares)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]
