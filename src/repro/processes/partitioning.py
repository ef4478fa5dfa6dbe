"""Queue files and TEU partitioning (paper, Sections 3.3 and 4).

The all-vs-all takes a *queue file* — "the list of entry indexes E = [1..N]
into the dataset" — and Preprocessing creates "a partition P = {P1..Pn} of
the entries E in the queue file"; each Pi becomes one task execution unit
(TEU).

Queues and partitions are passed around as compact JSON **descriptors** so
that SP38-scale runs (80,000 entries, 512 TEUs) do not persist megabytes of
index lists into the instance space:

* ``{"kind": "range", "lo": 1, "hi": N}`` — a contiguous index range;
* ``{"kind": "stride", "start": s, "stride": k, "hi": N}`` — s, s+k, ...;
* ``{"kind": "list", "entries": [...]}`` — explicit (small queues only).

Three partitioning strategies are provided; ``interleaved`` is the default
because contiguous ranges over a triangular workload (entry *i* is compared
against all entries *j > i*) are badly imbalanced, while striding evens the
pair counts out to the residual variance of sequence lengths.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..bio.costmodel import DatabaseProfile
from ..errors import ReproError


def range_queue(n: int) -> Dict[str, Any]:
    """The default queue file: every entry of an N-entry database."""
    if n < 1:
        raise ReproError("queue must contain at least one entry")
    return {"kind": "range", "lo": 1, "hi": n}


def list_queue(entries: Sequence[int]) -> Dict[str, Any]:
    """An explicit queue (used to discard ill-behaving sequences)."""
    entries = sorted(set(int(e) for e in entries))
    if not entries:
        raise ReproError("queue must contain at least one entry")
    return {"kind": "list", "entries": entries}


def expand(descriptor: Dict[str, Any]) -> Sequence[int]:
    """The 1-based indexes a descriptor denotes, as an immutable sequence.

    A ``range`` for ``range`` and ``stride`` descriptors (no list of N
    entries is built), a tuple for ``list`` ones, in descriptor order.
    """
    kind = descriptor.get("kind")
    if kind == "range":
        return range(int(descriptor["lo"]), int(descriptor["hi"]) + 1)
    if kind == "stride":
        return range(int(descriptor["start"]), int(descriptor["hi"]) + 1,
                     int(descriptor["stride"]))
    if kind == "list":
        return tuple(map(int, descriptor["entries"]))
    raise ReproError(f"unknown queue/partition descriptor kind {kind!r}")


def descriptor_size(descriptor: Dict[str, Any]) -> int:
    """Number of entries a descriptor denotes, without materializing it."""
    kind = descriptor.get("kind")
    if kind == "range":
        return max(0, int(descriptor["hi"]) - int(descriptor["lo"]) + 1)
    if kind == "stride":
        span = int(descriptor["hi"]) - int(descriptor["start"])
        if span < 0:
            return 0
        return span // int(descriptor["stride"]) + 1
    if kind == "list":
        return len(descriptor["entries"])
    raise ReproError(f"unknown queue/partition descriptor kind {kind!r}")


def make_partitions(queue: Dict[str, Any], granularity: int,
                    strategy: str = "interleaved",
                    profile: Optional[DatabaseProfile] = None,
                    ) -> List[Dict[str, Any]]:
    """Split a queue into ``granularity`` TEU descriptors.

    Strategies:

    * ``interleaved`` — TEU *k* takes entries ``k, k+n, k+2n, ...`` (stride
      descriptors for range queues; index-sliced lists otherwise). Balances
      the triangular pair counts.
    * ``contiguous`` — consecutive ranges (the naive split; kept as an
      ablation baseline because it is badly imbalanced).
    * ``balanced`` — greedy longest-processing-time assignment using the
      database profile's estimated per-entry pair cost; needs ``profile``.
    """
    if granularity < 1:
        raise ReproError("granularity must be >= 1")
    entries = expand(queue)
    n_entries = len(entries)
    granularity = min(granularity, n_entries)

    if strategy == "interleaved":
        if queue.get("kind") == "range" and int(queue["lo"]) == 1:
            hi = int(queue["hi"])
            return [
                {"kind": "stride", "start": k + 1, "stride": granularity,
                 "hi": hi}
                for k in range(granularity)
            ]
        return [
            {"kind": "list", "entries": list(entries[k::granularity])}
            for k in range(granularity)
        ]

    if strategy == "contiguous":
        partitions: List[Dict[str, Any]] = []
        base = n_entries // granularity
        extra = n_entries % granularity
        position = 0
        for k in range(granularity):
            size = base + (1 if k < extra else 0)
            chunk = list(entries[position:position + size])
            position += size
            if not chunk:
                continue
            if chunk == list(range(chunk[0], chunk[-1] + 1)):
                partitions.append(
                    {"kind": "range", "lo": chunk[0], "hi": chunk[-1]}
                )
            else:
                partitions.append({"kind": "list", "entries": chunk})
        return partitions

    if strategy == "balanced":
        if profile is None:
            raise ReproError("balanced partitioning needs a DatabaseProfile")
        # Cost of entry i ~ len_i * (total length of later queue entries).
        suffix = 0.0
        weights = []
        for index in reversed(entries):
            weights.append((index, profile.length(index) * suffix))
            suffix += profile.length(index)
        weights.reverse()
        weights.sort(key=lambda pair: -pair[1])
        bins: List[List[int]] = [[] for _ in range(granularity)]
        loads = [0.0] * granularity
        for index, weight in weights:
            slot = loads.index(min(loads))
            bins[slot].append(index)
            loads[slot] += weight
        return [
            {"kind": "list", "entries": sorted(chunk)}
            for chunk in bins if chunk
        ]

    raise ReproError(f"unknown partition strategy {strategy!r}")


def partition_pair_counts(queue: Dict[str, Any],
                          partitions: List[Dict[str, Any]]) -> List[int]:
    """Pairwise-alignment count per TEU (for balance diagnostics)."""
    queue_entries = expand(queue)
    position = {entry: i for i, entry in enumerate(queue_entries)}
    total = len(queue_entries)
    counts = []
    for part in partitions:
        counts.append(sum(
            total - position[entry] - 1 for entry in expand(part)
        ))
    return counts
