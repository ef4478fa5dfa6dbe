"""Configuration sweeps: factorial cells, CRN, Pareto + weighted ranking.

A sweep compares configuration cells — points in the cartesian product
of a few :class:`~repro.faults.chaos.CampaignConfig` axes (checkpoint
interval, lease timing, ...) — under *common random numbers*: every cell
runs the exact same seed set, so two cells differ only in configuration,
never in the drawn fault schedule. That is the classic
variance-reduction trick for paired comparison of alternatives.

Each cell is then scored on three dependability axes:

* ``survival`` — fraction of runs with every invariant intact (higher
  is better);
* ``throughput`` — mean fault-free-wall / run-wall ratio (1.0 = the
  faults cost nothing; higher is better);
* ``recovery`` — mean server downtime per run in simulated seconds,
  measured from each crash to the detector's promoted incarnation
  serving (lower is better).

Ranking uses both MCDM views DAVOS offers: the Pareto front (cells no
other cell beats on every axis) and a weighted-sum score over min-max
normalized metrics, so the report shows the undominated set *and* a
single defensible ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .chaos import CampaignConfig

#: default weighted-sum weights: survival dominates (it is the paper's
#: claim), throughput and recovery split the rest.
DEFAULT_WEIGHTS = {"survival": 0.6, "throughput": 0.25, "recovery": 0.15}

#: metric orientations: +1 = maximize, -1 = minimize.
METRIC_SENSE = {"survival": 1, "throughput": 1, "recovery": -1}


@dataclass(frozen=True)
class SweepAxis:
    """One swept CampaignConfig field and the values it takes."""

    name: str
    values: Tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


def cells(axes: Sequence[SweepAxis],
          base: Optional[CampaignConfig] = None) -> List[CampaignConfig]:
    """Full factorial design: every combination of axis values.

    Cells come out in deterministic row-major order (first axis slowest),
    which fixes the campaign's canonical run order and therefore the
    journal layout.
    """
    configs = [base or CampaignConfig()]
    for axis in axes:
        configs = [
            config.replace(**{axis.name: value})
            for config in configs
            for value in axis.values
        ]
    return configs


@dataclass
class CellOutcome:
    """One swept cell's aggregated dependability metrics."""

    config: CampaignConfig
    runs: int = 0
    survived: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    score: float = 0.0
    pareto: bool = False
    records: List[Dict] = field(default_factory=list)

    @property
    def cell(self) -> str:
        """The cell's stable label (journal/report key)."""
        return self.config.label()

    def to_dict(self) -> Dict:
        """JSON-safe summary for ``BENCH_chaos.json``."""
        return {
            "cell": self.cell,
            "config": self.config.to_dict(),
            "runs": self.runs,
            "survived": self.survived,
            "metrics": {k: round(v, 6) for k, v in self.metrics.items()},
            "score": round(self.score, 6),
            "pareto": self.pareto,
        }


def summarize_cell(config: CampaignConfig,
                   records: Sequence[Dict]) -> CellOutcome:
    """Aggregate one cell's run records into its three metrics."""
    outcome = CellOutcome(config=config, records=list(records))
    outcome.runs = len(records)
    outcome.survived = sum(1 for record in records if record["ok"])
    walls = [record["rel_throughput"] for record in records]
    downtimes = [record["recovery_time"] for record in records]
    outcome.metrics = {
        "survival": outcome.survived / outcome.runs if outcome.runs else 0.0,
        "throughput": sum(walls) / len(walls) if walls else 0.0,
        "recovery": sum(downtimes) / len(downtimes) if downtimes else 0.0,
    }
    return outcome


def dominates(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """True when ``a`` is at least as good as ``b`` on every metric and
    strictly better on at least one (respecting each metric's sense)."""
    better_somewhere = False
    for name, sense in METRIC_SENSE.items():
        delta = (a[name] - b[name]) * sense
        if delta < 0:
            return False
        if delta > 0:
            better_somewhere = True
    return better_somewhere


def pareto_front(outcomes: Sequence[CellOutcome]) -> List[CellOutcome]:
    """Mark and return the undominated cells (stable order)."""
    front = []
    for candidate in outcomes:
        candidate.pareto = not any(
            dominates(other.metrics, candidate.metrics)
            for other in outcomes if other is not candidate
        )
        if candidate.pareto:
            front.append(candidate)
    return front


def weighted_scores(outcomes: Sequence[CellOutcome],
                    weights: Optional[Dict[str, float]] = None) -> None:
    """Assign min-max-normalized weighted-sum scores in place.

    Minimized metrics are inverted during normalization so that 1.0 is
    always "best". A metric that is constant across cells contributes its
    full weight to every cell (it cannot discriminate).
    """
    weights = weights or DEFAULT_WEIGHTS
    spans = {}
    for name in METRIC_SENSE:
        values = [outcome.metrics[name] for outcome in outcomes]
        spans[name] = (min(values), max(values)) if values else (0.0, 0.0)
    for outcome in outcomes:
        score = 0.0
        for name, sense in METRIC_SENSE.items():
            low, high = spans[name]
            if high == low:
                normalized = 1.0
            else:
                normalized = (outcome.metrics[name] - low) / (high - low)
                if sense < 0:
                    normalized = 1.0 - normalized
            score += weights.get(name, 0.0) * normalized
        outcome.score = score


def run_sweep(engine, configs: Sequence[CampaignConfig],
              seeds: Sequence[int],
              weights: Optional[Dict[str, float]] = None,
              log: Optional[Callable[[str], None]] = None
              ) -> List[CellOutcome]:
    """Run every cell over the same seed set and rank the outcomes.

    ``engine`` is a :class:`~repro.faults.campaign.CampaignEngine`; the
    common seed set is what makes cell-to-cell differences attributable
    to configuration rather than to luck of the fault draw. Returns
    outcomes sorted by weighted score (best first), with the Pareto
    front marked.
    """
    from .campaign import RunSpec

    seeds = list(seeds)
    outcomes = []
    for config in configs:
        records = engine.run([RunSpec(seed, config) for seed in seeds])
        outcome = summarize_cell(config, records)
        outcomes.append(outcome)
        if log:
            m = outcome.metrics
            log(f"  cell {outcome.cell}: survival "
                f"{m['survival']:.0%}, throughput {m['throughput']:.3f}, "
                f"recovery {m['recovery']:.0f}s")
    weighted_scores(outcomes, weights)
    pareto_front(outcomes)
    outcomes.sort(key=lambda o: (-o.score, o.cell))
    return outcomes
