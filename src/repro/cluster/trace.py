"""Availability/utilization traces — the raw data of Figures 5 and 6.

The trace records ``(time, available_cpus, busy_cpus)`` at every change
point in the simulated cluster (event-driven, so it is exact, not
sampled). It keeps each node's contribution in node order and refreshes
only the nodes a transition touched (:meth:`ClusterTrace.touch`), so a
record costs what changed and one with nothing changed returns at once;
the totals are the same ``sum`` in the same order as a walk of every
node, so the floats are identical. :meth:`ClusterTrace.series`
resamples the piecewise-constant signal onto a regular grid for
plotting/reporting, and
:meth:`ClusterTrace.integrals` computes CPU-time areas (the basis for
utilization percentages in the experiment write-ups).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .network import SERVER


class ClusterTrace:
    """Event-driven recorder of cluster availability and utilization."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: change points: (time, available, busy)
        self.samples: List[Tuple[float, float, float]] = []
        #: labelled scenario events for figure annotations: (time, label)
        self.annotations: List[Tuple[float, str]] = []
        #: node name -> its slot in the contribution lists (node order).
        self._slot = {name: slot for slot, name in enumerate(cluster.nodes)}
        #: each node's available CPUs (0 behind a cut) and busy CPUs.
        self._available: List[int] = [0] * len(self._slot)
        self._busy: List[float] = [0.0] * len(self._slot)
        #: nodes whose contribution a transition may have changed.
        self._stale = set(self._slot)
        self._totals = (0.0, 0.0)

    def touch(self, *names: str) -> None:
        """Mark the named nodes' contributions (every node's when none
        is named: a partition starts or heals) for the next record."""
        self._stale.update(names or self._slot)

    def _refresh(self) -> Tuple[float, float]:
        nodes, is_cut = self.cluster.nodes, self.cluster.network.is_cut
        for name in self._stale:
            node, slot = nodes[name], self._slot[name]
            self._available[slot] = (
                0 if is_cut(SERVER, name) or is_cut(name, SERVER)
                else node.available_cpus())
            self._busy[slot] = node.utilization()
        self._stale.clear()
        return float(sum(self._available)), float(sum(self._busy))

    def record(self, force: bool = False) -> None:
        """Sample the cluster now if a touched node changed the totals
        (or ``force``); a sample at the last one's time replaces it."""
        if not self._stale and self.samples and not force:
            return
        t = self.cluster.kernel.now
        if self._stale:
            self._totals = self._refresh()
        available, busy = self._totals
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
