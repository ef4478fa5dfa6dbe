"""Deterministic discrete-event simulation kernel.

Everything time-dependent in the reproduction — the BioOpera server, the
program execution clients, external load, failures, upgrades — runs as
callbacks on one :class:`SimKernel`. The kernel is deliberately tiny: a
binary heap of timestamped events plus a family of seeded random streams.

Determinism rules:

* ties in time are broken by (priority, insertion sequence), so two runs
  with the same seed produce identical schedules;
* every source of randomness draws from ``kernel.rng(name)``, a stream
  seeded by ``(seed, name)``, so adding a new random consumer does not
  perturb existing streams.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Optional

from ..errors import SimulationError


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "label", "_kernel")

    def __init__(self, time, fn, args, label="", kernel=None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.label = label
        self._kernel = kernel  # set while the event sits in a kernel heap

    def cancel(self):
        """Prevent the callback from firing. Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._kernel is not None:
                self._kernel._note_cancelled()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.fn, "__name__", "fn")
        return f"<Event {name} at t={self.time:.3f} ({state})>"


class SimKernel:
    """Event-driven simulation clock.

    Parameters
    ----------
    seed:
        Master seed for all random streams.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._now = 0.0
        #: (time, priority, seq, event); seq is unique, so the tuple order
        #: never reaches the event.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._rngs: dict[str, random.Random] = {}
        self._running = False
        self._events_processed = 0
        #: cancelled events still occupying heap slots; compacted away once
        #: they dominate the heap, so long runs with heavy cancellation
        #: (kill-and-restart migration, outage timers) stay O(log live).
        self._stale = 0

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # -- randomness ----------------------------------------------------------

    def rng(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use."""
        stream = self._rngs.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}/{name}")
            self._rngs[name] = stream
        return stream

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any,
                 priority: int = 0, label: str = "") -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        return self.schedule_at(self._now + delay, fn, *args,
                                priority=priority, label=label)

    def schedule_at(self, time: float, fn: Callable, *args: Any,
                    priority: int = 0, label: str = "") -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event(time, fn, args, label=label, kernel=self)
        heapq.heappush(
            self._heap, (time, priority, next(self._seq), event)
        )
        return event

    # -- cancelled-event bookkeeping ------------------------------------------

    def _note_cancelled(self) -> None:
        self._stale += 1
        if self._stale > 64 and self._stale * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries in bulk and restore the heap invariant."""
        self._heap = [e for e in self._heap if not e[3].cancelled]
        heapq.heapify(self._heap)
        self._stale = 0

    def _release(self, event: Event) -> None:
        """An entry left the heap: stop accounting for its cancellation."""
        event._kernel = None
        if event.cancelled:
            self._stale -= 1

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event. Returns False if none remain."""
        while self._heap:
            time, _priority, _seq, event = heapq.heappop(self._heap)
            self._release(event)
            if event.cancelled:
                continue
            self._now = time
            self._events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events in order until the heap drains or limits are hit.

        Returns the simulation time when execution stopped. ``until`` is an
        inclusive horizon: events at exactly ``until`` still run.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run)")
        self._running = True
        processed = 0
        try:
            while self._heap:
                time, _priority, _seq, event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    self._release(event)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heapq.heappop(self._heap)
                self._release(event)
                self._now = time
                self._events_processed += 1
                processed += 1
                event.fn(*event.args)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._pending_before(until):
            self._now = until
        return self._now

    def _pending_before(self, time: float) -> bool:
        return any(
            not event.cancelled and at <= time
            for at, _priority, _seq, event in self._heap
        )

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return len(self._heap) - self._stale


def format_duration(seconds: float) -> str:
    """Render a duration like the paper's tables: ``38d 3h 22m``."""
    seconds = max(0.0, float(seconds))
    days, rest = divmod(int(round(seconds)), 86400)
    hours, rest = divmod(rest, 3600)
    minutes, secs = divmod(rest, 60)
    if days:
        return f"{days}d {hours}h {minutes}m"
    if hours:
        return f"{hours}h {minutes}m {secs}s"
    if minutes:
        return f"{minutes}m {secs}s"
    return f"{secs}s"
