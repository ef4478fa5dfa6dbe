"""Availability/utilization traces — the raw data of Figures 5 and 6.

The trace records ``(time, available_cpus, busy_cpus)`` at every change
point in the simulated cluster (event-driven, so it is exact, not
sampled). :meth:`ClusterTrace.series` resamples the piecewise-constant
signal onto a regular grid for plotting/reporting, and
:meth:`ClusterTrace.integrals` computes CPU-time areas (the basis for
utilization percentages in the experiment write-ups).
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class ClusterTrace:
    """Event-driven recorder of cluster availability and utilization."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: change points: (time, available, busy)
        self.samples: List[Tuple[float, float, float]] = []
        #: labelled scenario events for figure annotations: (time, label)
        self.annotations: List[Tuple[float, str]] = []

    def record(self, force: bool = False) -> None:
        t = self.cluster.kernel.now
        available = float(self.cluster.available_cpus())
        busy = float(self.cluster.busy_cpus())
        if self.samples and not force:
            last_t, last_a, last_b = self.samples[-1]
            if last_a == available and abs(last_b - busy) < 1e-9:
                return
            if last_t == t:
                self.samples[-1] = (t, available, busy)
                return
        self.samples.append((t, available, busy))

    def annotate(self, label: str, time: Optional[float] = None) -> None:
        self.annotations.append(
            (self.cluster.kernel.now if time is None else time, label)
        )

    # ------------------------------------------------------------------
    # Post-processing
    # ------------------------------------------------------------------

    def series(self, step: float,
               until: Optional[float] = None
               ) -> List[Tuple[float, float, float]]:
        """Resample to a regular grid of period ``step`` (zero-order hold)."""
        if not self.samples:
            return []
        end = until if until is not None else self.samples[-1][0]
        grid: List[Tuple[float, float, float]] = []
        index = 0
        current = (0.0, 0.0)
        t = 0.0
        while t <= end + 1e-9:
            while (index < len(self.samples)
                   and self.samples[index][0] <= t + 1e-9):
                current = self.samples[index][1:]
                index += 1
            grid.append((t, current[0], current[1]))
            t += step
        return grid

    def integrals(self, until: Optional[float] = None) -> Tuple[float, float]:
        """(available, busy) CPU-seconds areas under the trace."""
        if not self.samples:
            return 0.0, 0.0
        end = until if until is not None else self.samples[-1][0]
        area_available = 0.0
        area_busy = 0.0
        for index, (t, available, busy) in enumerate(self.samples):
            t_next = (self.samples[index + 1][0]
                      if index + 1 < len(self.samples) else end)
            span = max(0.0, min(t_next, end) - t)
            area_available += available * span
            area_busy += busy * span
        return area_available, area_busy

    def utilization_fraction(self, until: Optional[float] = None) -> float:
        available, busy = self.integrals(until)
        return busy / available if available > 0 else 0.0

    def max_available(self) -> float:
        return max((a for _t, a, _b in self.samples), default=0.0)
