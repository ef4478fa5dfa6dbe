"""Darwin-substitute: the bioinformatics application BioOpera drives.

The paper's activities are Darwin programs ("when a task needs to be
executed, BioOpera contacts Darwin at the appropriate machine and instructs
it to execute a particular algorithm on a particular set of inputs").
:class:`DarwinEngine` plays that role here, in two execution modes that
share one interface and one result format:

* ``real`` — actually runs Smith-Waterman / PAM refinement over a
  :class:`~repro.bio.sequence.SequenceDatabase` (used by examples and
  correctness tests on small data);
* ``modeled`` — synthesizes statistically equivalent results from the
  database *profile* and charges the calibrated cost, so SP38-scale
  processes execute in simulated time.

Results are JSON-able *match sets*::

    {"count": int, "matches": [match...], "truncated": bool}

where each match is ``{"i", "j", "score", "pam" (after refinement)}``.
Match lists are capped at ``sample_cap`` concrete entries (the count is
always exact); merging respects both.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence as Seq

from ..errors import BioError
from .costmodel import CostModel, DatabaseProfile, QueueIndex
from .matrices import default_family
from .pam import refine_distance
from .sequence import SequenceDatabase
from .align import sw_score

#: Default similarity threshold above which a pair is reported as a match.
MATCH_THRESHOLD = 80.0

#: Default cap on concrete matches carried in a match set.
SAMPLE_CAP = 500


def empty_match_set() -> Dict[str, Any]:
    return {"count": 0, "matches": [], "truncated": False}


def merge_match_sets(sets: Seq[Dict[str, Any]],
                     sample_cap: int = SAMPLE_CAP) -> Dict[str, Any]:
    """Combine match sets: exact counts, capped concrete matches."""
    count = sum(int(s["count"]) for s in sets)
    matches: List[Dict[str, Any]] = []
    truncated = any(bool(s.get("truncated")) for s in sets)
    for s in sets:
        matches.extend(s["matches"])
    matches.sort(key=lambda m: (m["i"], m["j"]))
    if len(matches) > sample_cap:
        matches = matches[:sample_cap]
        truncated = True
    return {"count": count, "matches": matches, "truncated": truncated}


class DarwinEngine:
    """Alignment application with ``real`` and ``modeled`` execution.

    Parameters
    ----------
    profile:
        Statistical profile of the database (always required; drives
        costs and synthetic results).
    database:
        The concrete sequences; required for ``mode='real'``.
    """

    def __init__(
        self,
        profile: DatabaseProfile,
        database: Optional[SequenceDatabase] = None,
        mode: str = "modeled",
        cost_model: Optional[CostModel] = None,
        match_threshold: float = MATCH_THRESHOLD,
        random_match_rate: float = 0.002,
        sample_cap: int = SAMPLE_CAP,
        seed: int = 0,
    ):
        if mode not in ("real", "modeled"):
            raise BioError(f"unknown Darwin mode {mode!r}")
        if mode == "real" and database is None:
            raise BioError("real mode requires a SequenceDatabase")
        if database is not None and len(database) != len(profile):
            raise BioError("database and profile sizes disagree")
        self.profile = profile
        self.database = database
        self.mode = mode
        self.cost_model = cost_model or CostModel()
        self.match_threshold = match_threshold
        self.random_match_rate = random_match_rate
        self.sample_cap = sample_cap
        self.seed = seed
        self._index: Optional[QueueIndex] = None

    def _rng(self, *key: Any) -> random.Random:
        return random.Random(f"{self.seed}/{self.profile.name}/{key!r}")

    def init_cost(self) -> float:
        """Per-TEU Darwin start-up cost (interpreter + database load)."""
        return self.cost_model.init_cost(len(self.profile))

    # ------------------------------------------------------------------
    # Fixed-PAM first pass (one TEU)
    # ------------------------------------------------------------------

    def _queue_index(self, queue: Any,
                     expand: Optional[Callable[[Any], Seq[int]]] = None
                     ) -> QueueIndex:
        """The queue's :class:`QueueIndex`, built once per distinct queue.

        One slot, keyed by the queue as given (its entries, or the
        descriptor ``expand`` turns into them): the TEUs of one all-vs-all
        share their queue, so each reuses the index the first one built.
        The key is matched by identity, then by equality; the queue is
        expanded only on a miss.
        """
        if expand is None and not isinstance(queue, (range, tuple)):
            queue = tuple(queue)
        index = self._index
        if index is None or (index.key is not queue and index.key != queue):
            entries = queue if expand is None else expand(queue)
            self._index = index = QueueIndex(self.profile, entries, key=queue)
        return index

    def align_partition(self, partition: Seq[int], queue: Any,
                        expand: Optional[Callable[[Any], Seq[int]]] = None
                        ) -> Dict[str, Any]:
        """Align every partition entry against all later queue entries.

        ``queue`` is the queue's entries or, with ``expand``, a descriptor
        ``expand(queue)`` turns into them. Returns ``{"match_set": ...,
        "cost": seconds, "pairs": int}`` where cost includes the Darwin
        initialization for this TEU.
        """
        partition = sorted(int(i) for i in partition)
        index = self._queue_index(queue, expand)
        positions = index.locate(partition)
        if self.mode == "real":
            match_set, pairs, cost = self._align_real(partition, index)
        else:
            match_set, pairs, cost = self._align_modeled(partition, positions,
                                                         index)
        cost += self.init_cost()
        cost += match_set["count"] * self.cost_model.match_record_cost
        return {"match_set": match_set, "cost": cost, "pairs": pairs}

    def _align_real(self, partition, index):
        matrix = default_family().matrix(100.0)
        matches: List[Dict[str, Any]] = []
        cells = 0
        pairs = 0
        entries = index.entries
        for i in partition:
            seq_i = self.database.entry(i)
            for j in entries[bisect_right(entries, i):]:
                seq_j = self.database.entry(j)
                score = sw_score(seq_i.residues, seq_j.residues, matrix)
                cells += len(seq_i) * len(seq_j)
                pairs += 1
                if score >= self.match_threshold:
                    matches.append(
                        {"i": i, "j": j, "score": round(score, 2)}
                    )
        cost = cells * self.cost_model.fixed_pam_factor / self.cost_model.cell_rate
        truncated = len(matches) > self.sample_cap
        match_set = {
            "count": len(matches),
            "matches": matches[: self.sample_cap],
            "truncated": truncated,
        }
        return match_set, pairs, cost

    def _align_modeled(self, partition, positions, index):
        cost = self.cost_model.teu_fixed_cost(self.profile, partition,
                                              positions, index)
        pairs = self.cost_model.teu_pair_count(positions, len(index))
        rng = self._rng("teu", partition[0] if partition else 0, len(partition))
        matches: List[Dict[str, Any]] = []
        # Homologous pairs: deterministic from the family structure.
        for i in partition:
            for j in self.profile.family_partners(i):
                if j > i and j in index:
                    min_len = min(self.profile.length(i), self.profile.length(j))
                    score = max(
                        self.match_threshold,
                        rng.gauss(3.0 * min_len, 0.3 * min_len),
                    )
                    matches.append({"i": i, "j": j, "score": round(score, 2)})
        # Background matches: rare chance similarities among non-homologs.
        family_count = len(matches)
        n_random = self._binomial(rng, max(0, pairs - family_count),
                                  self.random_match_rate)
        for _ in range(min(n_random, self.sample_cap)):
            i = rng.choice(partition)
            later = [j for j in (rng.choice(index.entries) for _ in range(8))
                     if j > i]
            if not later:
                continue
            j = later[0]
            score = self.match_threshold + rng.expovariate(1 / 15.0)
            matches.append({"i": i, "j": j, "score": round(score, 2)})
        count = family_count + n_random
        matches.sort(key=lambda m: (m["i"], m["j"]))
        truncated = len(matches) > self.sample_cap or count > len(matches)
        match_set = {
            "count": count,
            "matches": matches[: self.sample_cap],
            "truncated": truncated,
        }
        return match_set, pairs, cost

    @staticmethod
    def _binomial(rng: random.Random, n: int, p: float) -> int:
        """Binomial sample via normal approximation for large n."""
        if n <= 0 or p <= 0:
            return 0
        mean = n * p
        if n < 64:
            return sum(1 for _ in range(n) if rng.random() < p)
        sigma = (n * p * (1 - p)) ** 0.5
        return max(0, int(round(rng.gauss(mean, sigma))))

    # ------------------------------------------------------------------
    # PAM-parameter refinement (second pass over the matches)
    # ------------------------------------------------------------------

    def refine_match_set(self, match_set: Dict[str, Any]) -> Dict[str, Any]:
        """Re-align each match searching for the similarity-maximizing PAM.

        Returns ``{"match_set": refined, "cost": seconds}``.
        """
        if self.mode == "real":
            return self._refine_real(match_set)
        return self._refine_modeled(match_set)

    def _refine_real(self, match_set):
        refined: List[Dict[str, Any]] = []
        cells = 0
        for match in match_set["matches"]:
            seq_i = self.database.entry(match["i"])
            seq_j = self.database.entry(match["j"])
            estimate = refine_distance(
                seq_i.residues, seq_j.residues, default_family()
            )
            cells += len(seq_i) * len(seq_j) * estimate.evaluations
            entry = dict(match)
            entry["pam"] = estimate.pam
            entry["score"] = round(estimate.score, 2)
            refined.append(entry)
        cost = cells / self.cost_model.cell_rate + self.init_cost()
        result = {
            "count": match_set["count"],
            "matches": refined,
            "truncated": match_set["truncated"],
        }
        return {"match_set": result, "cost": cost}

    def _refine_modeled(self, match_set):
        rng = self._rng("refine", match_set["count"], len(match_set["matches"]))
        refined: List[Dict[str, Any]] = []
        cells = 0.0
        evals = self.cost_model.refine_evaluations
        for match in match_set["matches"]:
            len_i = self.profile.length(match["i"])
            len_j = self.profile.length(match["j"])
            cells += len_i * len_j * evals
            entry = dict(match)
            same_family = (
                self.profile.family_of(match["i"]) >= 0
                and self.profile.family_of(match["i"])
                == self.profile.family_of(match["j"])
            )
            if same_family:
                entry["pam"] = round(min(250.0, max(5.0, rng.gauss(90, 15))), 2)
            else:
                entry["pam"] = round(min(350.0, max(50.0, rng.gauss(200, 40))), 2)
            entry["score"] = round(match["score"] * (1 + rng.random() * 0.08), 2)
            refined.append(entry)
        # Charge for the untruncated remainder at the mean refine cost.
        hidden = match_set["count"] - len(match_set["matches"])
        if hidden > 0:
            cells += hidden * self.cost_model.mean_refine_cost(
                self.profile
            ) * self.cost_model.cell_rate
        cost = cells / self.cost_model.cell_rate + self.init_cost()
        result = {
            "count": match_set["count"],
            "matches": refined,
            "truncated": match_set["truncated"],
        }
        return {"match_set": result, "cost": cost}
