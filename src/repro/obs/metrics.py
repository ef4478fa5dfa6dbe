"""Metrics primitives: counters, gauges, and bounded histograms.

The registry is the cheap half of the observability subsystem: engine
components update it inline (a dict write per event) and the operator
console reads a point-in-time snapshot. Histograms use a fixed bucket
layout so memory stays bounded no matter how many observations arrive —
the same discipline the materialized views apply to the event log.

Nothing in here is durable: metrics describe the *current server process*
(dispatch latency, queue depth, per-node utilization). Accounting that
must survive a crash lives in the event log and its materialized views
(:mod:`repro.obs.views`).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, Optional, Tuple


class BoundedHistogram:
    """Fixed-bucket histogram: O(1) memory, O(log buckets) per observe.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last bound. Quantiles are read from the bucket
    cumulative counts, so they are upper-edge approximations — exact
    enough for operator dashboards, bounded enough for a hot path.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    #: default edges in seconds, spanning sub-second dispatch latencies up
    #: to hour-long queue waits.
    DEFAULT_BOUNDS: Tuple[float, ...] = (
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
        120.0, 300.0, 900.0, 3600.0,
    )

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds = tuple(sorted(bounds)) if bounds else self.DEFAULT_BOUNDS
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Count one value into its bucket and the running totals."""
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 before the first)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding the q-th observation."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, count in enumerate(self.buckets):
            seen += count
            if seen >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def summary(self) -> Dict[str, Any]:
        """Count, sum, min, max, mean, p50, p95 and the bucket rows."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "buckets": [
                [bound, count]
                for bound, count in zip(self.bounds, self.buckets)
            ] + [["+inf", self.buckets[-1]]],
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms, updated inline.

    All methods are safe to call on hot paths: an update is one or two
    dict operations. Readers take :meth:`snapshot`, which copies, so a
    snapshot never aliases live state.
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, BoundedHistogram] = {}

    # -- writers (hot path) -------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self.gauges[name] = value

    def observe(self, name: str, value: float,
                bounds: Optional[Iterable[float]] = None) -> None:
        """Record one value in a histogram (created with ``bounds``)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = BoundedHistogram(bounds)
        histogram.observe(value)

    # -- readers ------------------------------------------------------------

    def counter(self, name: str) -> int:
        """A counter's value (0 when never incremented)."""
        return self.counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """A gauge's value, or ``default`` when never set."""
        return self.gauges.get(name, default)

    def histogram(self, name: str) -> Optional[BoundedHistogram]:
        """A histogram by name, or ``None``."""
        return self.histograms.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """A copy of every counter, gauge and histogram summary."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.summary()
                for name, histogram in self.histograms.items()
            },
        }
