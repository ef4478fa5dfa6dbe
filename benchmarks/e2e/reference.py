"""A fixed piece of work whose duration says how fast the host is right now.

This sandbox has slow phases: the same deterministic unit takes 1.3-1.6x
longer for minutes at a time, long enough to cover a whole invocation, so
no statistic over the units of one invocation removes them.
:func:`reference` is ~0.35 s of work that depends on nothing under
``src/repro`` — only the interpreter and the standard library — in the mix
the program itself runs: dict and attribute traffic in bytecode, a JSON
round trip, a prefix scan and sort over 60 000 keys, a heap of objects
ordered by ``__lt__``. ``run.py`` runs it before and after every timed unit
and divides the unit's wall time by how much slower than
:data:`NOMINAL_S` the two neighbouring references were.

A change to the program cannot move the reference, so it cannot hide in
the division; a change to this file is a change to the benchmark.
"""

import gc
import heapq
import json
import time

#: what :func:`reference` takes on this box in a fast phase. It only fixes
#: the scale, so that a normalised time still reads as seconds here.
NOMINAL_S = 0.35

_DOCUMENT = {
    f"entry{index:04d}": {
        "costs": [position * 1.5 for position in range(20)],
        "label": "x" * 40,
        "nested": {"serial": index, "tags": [str(index)] * 5},
    }
    for index in range(600)
}
_KEYS = [f"instance/pi-{index % 500:06d}/event/{index:010d}"
         for index in range(60_000)]
_STATE = dict.fromkeys(_KEYS, 1)
_PREFIXES = ("instance/pi-000123/", "instance/pi-000321/",
             "instance/pi-0004", "absent/")


class _Entry:
    """A heap entry compared the way the simulation kernel's are."""

    __slots__ = ("time", "priority", "serial")

    def __init__(self, time_, priority, serial):
        self.time = time_
        self.priority = priority
        self.serial = serial

    def __lt__(self, other):
        return ((self.time, self.priority, self.serial)
                < (other.time, other.priority, other.serial))


def _work() -> int:
    counts = {}
    total = 0
    for index in range(600_000):
        key = index & 1023
        counts[key] = counts.get(key, 0) + index
        total += counts[key] % 7
    for _ in range(14):
        total += len(json.loads(json.dumps(
            _DOCUMENT, sort_keys=True, separators=(",", ":"))))
    for _ in range(5):
        for prefix in _PREFIXES:
            total += len(sorted(key for key in _STATE
                                if key.startswith(prefix)))
        total += len(sorted(_KEYS))
    heap = []
    for serial in range(50_000):
        # A fixed multiplicative walk stands in for event times.
        heapq.heappush(heap, _Entry((serial * 7919) % 10_007, 0, serial))
        if serial % 3 == 0:
            total += heapq.heappop(heap).serial
    return total


def reference() -> float:
    """Seconds the fixed work took, with the collector off so that the
    size of the caller's heap does not enter into it."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()
