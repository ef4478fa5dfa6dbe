"""Workload profiles and the calibrated activity cost model.

The discrete-event simulator never executes SP38-scale alignments for real;
instead every activity is charged the CPU time the real computation would
take. Costs are expressed in **dynamic-programming cells** (the product of
the two sequence lengths, the exact work of the Smith-Waterman recurrence)
divided by a calibrated ``cell_rate``. :func:`CostModel.calibrate` fits the
rate by timing the real aligner, so "modeled" and "real" runs are on one
scale.

A :class:`DatabaseProfile` is the statistical skeleton of a sequence
database — entry lengths and homologous-family structure — sufficient for
both cost computation and synthetic match generation, without materializing
80,000 residue strings.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence as Seq

import numpy as np

from ..errors import BioError
from .align import sw_score
from .matrices import default_family
from .sequence import SequenceDatabase


class DatabaseProfile:
    """Lengths + family structure of a database, indexable 1..N."""

    def __init__(self, name: str, lengths: np.ndarray, families: np.ndarray):
        if len(lengths) != len(families):
            raise BioError("lengths and families must have equal size")
        if len(lengths) == 0:
            raise BioError("profile must contain at least one entry")
        self.name = name
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.families = np.asarray(families, dtype=np.int64)
        self._family_members: Dict[int, np.ndarray] = {}
        for family_id in np.unique(self.families):
            if family_id < 0:
                continue
            members = np.where(self.families == family_id)[0] + 1  # 1-based
            if len(members) > 1:
                self._family_members[int(family_id)] = members

    def __len__(self) -> int:
        return len(self.lengths)

    def length(self, index: int) -> int:
        """Length of the 1-based entry ``index``."""
        return int(self.lengths[index - 1])

    def family_of(self, index: int) -> int:
        """Family id of entry ``index`` (-1 for singletons)."""
        return int(self.families[index - 1])

    def family_partners(self, index: int) -> List[int]:
        """Other members of this entry's family (1-based indexes)."""
        family_id = self.family_of(index)
        members = self._family_members.get(family_id)
        if members is None:
            return []
        return [int(m) for m in members if m != index]

    def homologous_pairs(self) -> List[tuple]:
        """All (i, j) with i < j in the same family."""
        pairs = []
        for members in self._family_members.values():
            members = sorted(int(m) for m in members)
            for a_pos, i in enumerate(members):
                for j in members[a_pos + 1:]:
                    pairs.append((i, j))
        return sorted(pairs)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(cls, db: SequenceDatabase) -> "DatabaseProfile":
        family_names: Dict[str, int] = {}
        families = []
        for seq in db:
            if seq.family is None:
                families.append(-1)
            else:
                families.append(
                    family_names.setdefault(seq.family, len(family_names))
                )
        return cls(db.name, np.array(db.lengths()), np.array(families))

    @classmethod
    def synthetic(
        cls,
        name: str,
        size: int,
        seed: int = 0,
        mean_length: float = 360.0,
        length_shape: float = 2.0,
        min_length: int = 30,
        max_length: int = 4000,
        family_fraction: float = 0.3,
        family_size: int = 4,
    ) -> "DatabaseProfile":
        """Fast numpy generation of an SP38-scale profile (no residues)."""
        if size < 1:
            raise BioError("profile size must be positive")
        rng = np.random.default_rng(seed)
        lengths = rng.gamma(length_shape, mean_length / length_shape, size)
        lengths = np.clip(lengths.astype(np.int64), min_length, max_length)
        families = np.full(size, -1, dtype=np.int64)
        n_members = int(size * family_fraction)
        n_families = n_members // family_size
        if n_families:
            member_slots = rng.permutation(size)[: n_families * family_size]
            for family_id in range(n_families):
                slots = member_slots[
                    family_id * family_size:(family_id + 1) * family_size
                ]
                families[slots] = family_id
                # family members share a core length
                core = lengths[slots[0]]
                jitter = rng.integers(-core // 10 - 1, core // 10 + 2, len(slots))
                lengths[slots] = np.clip(core + jitter, min_length, max_length)
        return cls(name, lengths, families)


class QueueIndex:
    """A queue file indexed once, for every TEU that aligns against it.

    Holds the queue's entries sorted (the ``range`` itself when the queue
    is one), the same entries as an ``int64`` array, and the suffix sums of
    their lengths: ``suffix[k]`` is the total length of the entries from
    sorted position ``k`` on, ``suffix[-1]`` is 0. A TEU then costs one
    ``searchsorted`` of its partition (:meth:`locate`), not a sort of the
    queue.
    """

    def __init__(self, profile: DatabaseProfile, queue: Seq[int],
                 key: Any = None):
        #: what :class:`~repro.bio.darwin.DarwinEngine` matches a TEU's
        #: queue against: the entries themselves unless ``key`` is given.
        self.key = queue if key is None else key
        if isinstance(queue, range) and queue.step > 0:
            self.entries: Seq[int] = queue
        else:
            self.entries = tuple(sorted(map(int, queue)))
        self.array = np.asarray(self.entries, dtype=np.int64)
        lengths = profile.lengths[self.array - 1].astype(np.float64)
        self.suffix = np.concatenate([np.cumsum(lengths[::-1])[::-1], [0.0]])

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, entry: int) -> bool:
        pos = bisect_left(self.entries, entry)
        return pos < len(self.entries) and self.entries[pos] == entry

    def locate(self, partition: Seq[int]) -> np.ndarray:
        """Sorted-queue positions of ``partition``'s entries.

        Raises :class:`BioError` naming the first entries the queue does
        not hold."""
        wanted = np.asarray(partition)
        positions = np.searchsorted(self.array, wanted)
        held = positions < len(self.array)
        held[held] = self.array[positions[held]] == wanted[held]
        if not held.all():
            unknown = [entry for entry, ok in zip(partition, held) if not ok]
            raise BioError(f"partition entries not in queue: {unknown[:5]}")
        return positions


@dataclass
class CostModel:
    """CPU-cost model for Darwin-style activities, in seconds.

    ``cell_rate`` is DP cells per second on a speed-1.0 CPU (calibrated to
    late-1990s hardware by default so absolute magnitudes land in the
    paper's range). The fixed-PAM first pass is a fast heuristic
    (``fixed_pam_factor`` of the full DP cost); refinement re-runs the DP
    once per scoring matrix evaluated (``refine_evaluations``).
    """

    cell_rate: float = 1.8e6
    fixed_pam_factor: float = 0.25
    refine_evaluations: int = 15
    darwin_startup: float = 0.5
    db_load_per_entry: float = 0.0035
    match_record_cost: float = 0.002
    merge_cost_per_match: float = 0.0005
    merge_base_cost: float = 5.0

    def init_cost(self, db_size: int) -> float:
        """Darwin start-up + database load, charged once per TEU."""
        return self.darwin_startup + self.db_load_per_entry * db_size

    def fixed_pair_cost(self, len_a: int, len_b: int) -> float:
        return len_a * len_b * self.fixed_pam_factor / self.cell_rate

    def refine_pair_cost(self, len_a: int, len_b: int) -> float:
        return len_a * len_b * self.refine_evaluations / self.cell_rate

    def teu_fixed_cost(self, profile: DatabaseProfile, partition: Seq[int],
                       positions: np.ndarray, queue: QueueIndex) -> float:
        """Cost of aligning each partition entry against all later queue
        entries (redundant comparisons ruled out, as in the paper).

        ``positions`` are the partition's places in the queue
        (:meth:`QueueIndex.locate`), so the cost is one multiply-add per
        partition entry, whatever the queue's size."""
        suffix = queue.suffix
        cells = 0.0
        for pos, entry in zip(positions, partition):
            # entries strictly after `entry` in the queue
            cells += profile.length(entry) * suffix[pos + 1]
        return cells * self.fixed_pam_factor / self.cell_rate

    def teu_pair_count(self, positions: np.ndarray, queue_size: int) -> int:
        """Pairs a TEU aligns: each entry against the queue entries after it."""
        return int((queue_size - 1 - positions).sum())

    def mean_refine_cost(self, profile: DatabaseProfile) -> float:
        mean_len = float(profile.lengths.mean())
        return self.refine_pair_cost(int(mean_len), int(mean_len))

    # -- calibration ----------------------------------------------------------

    def calibrate(self, db: SequenceDatabase, sample_pairs: int = 4,
                  seed: int = 0) -> float:
        """Fit ``cell_rate`` by timing the real aligner on sampled pairs.

        Returns the measured rate (cells/second) and installs it.
        """
        import random as _random

        rng = _random.Random(seed)
        family = default_family()
        matrix = family.matrix(100.0)
        total_cells = 0
        started = time.perf_counter()
        for _ in range(sample_pairs):
            i = rng.randrange(1, len(db) + 1)
            j = rng.randrange(1, len(db) + 1)
            seq_a, seq_b = db.entry(i), db.entry(j)
            sw_score(seq_a.residues, seq_b.residues, matrix)
            total_cells += len(seq_a) * len(seq_b)
        elapsed = time.perf_counter() - started
        if elapsed <= 0:
            raise BioError("calibration timing produced zero elapsed time")
        self.cell_rate = total_cells / elapsed
        return self.cell_rate
