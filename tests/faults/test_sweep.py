"""Configuration sweeps: factorial cells, CRN, Pareto, weighted ranking.

These tests run against a stub engine (fabricated run records), so they
pin the sweep *mechanics* — cell enumeration, common-random-number seed
reuse, dominance, normalization — without paying for real campaigns;
the end-to-end path is covered in ``test_campaign.py`` and the CLI.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.faults import sweep
from repro.faults.chaos import CampaignConfig
from repro.faults.sweep import (
    CellOutcome,
    SweepAxis,
    cells,
    dominates,
    pareto_front,
    run_sweep,
    summarize_cell,
    weighted_scores,
)

AXES = (
    SweepAxis("profile", ("mixed", "shard")),
    SweepAxis("checkpoint_interval", (10, 40)),
    SweepAxis("leases", ((900.0, 4.0), None)),
)


def _record(seed, config, ok=True, rel_throughput=1.0, recovery_time=0.0):
    return {
        "seed": seed,
        "cell": config.label(),
        "ok": ok,
        "categories": ["node-crash"],
        "rel_throughput": rel_throughput,
        "recovery_time": recovery_time,
    }


class TestCells:
    def test_full_factorial_count_and_uniqueness(self):
        configs = cells(AXES)
        assert len(configs) == 8
        assert len({config.label() for config in configs}) == 8

    def test_row_major_deterministic_order(self):
        first, second = cells(AXES), cells(AXES)
        assert [c.label() for c in first] == [c.label() for c in second]
        # first axis varies slowest
        assert all(c.profile == "mixed" for c in first[:4])
        assert all(c.profile == "shard" for c in first[4:])

    def test_base_config_fields_survive(self):
        base = CampaignConfig(nodes=6, granularity=4)
        for config in cells(AXES, base):
            assert config.nodes == 6
            assert config.granularity == 4

    def test_axis_values_are_applied(self):
        intervals = {c.checkpoint_interval for c in cells(AXES)}
        assert intervals == {10, 40}
        leases = {c.leases for c in cells(AXES)}
        assert leases == {(900.0, 4.0), None}


class TestCommittedSweep:
    """The committed ``BENCH_chaos.json`` sweep is the one ``chaos_run``
    declares: a stale artifact (axes or cells of an older design) fails
    here instead of being quoted."""

    def test_axes_and_cells_equal_the_declared_sweep(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "chaos_run", root / "benchmarks" / "chaos_run.py")
        chaos_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(chaos_run)
        sweep = json.loads((root / "benchmarks" / "output"
                            / "BENCH_chaos.json").read_text())["sweep"]
        assert sweep["axes"] == [
            {"name": axis.name, "values": [repr(v) for v in axis.values]}
            for axis in chaos_run.SWEEP_AXES]
        assert sorted(cell["cell"] for cell in sweep["cells"]) == sorted(
            config.label() for config in cells(chaos_run.SWEEP_AXES))


class TestMetrics:
    def test_summarize_cell(self):
        config = CampaignConfig()
        records = [
            _record(0, config, ok=True, rel_throughput=0.8,
                    recovery_time=100.0),
            _record(1, config, ok=False, rel_throughput=0.4,
                    recovery_time=300.0),
        ]
        outcome = summarize_cell(config, records)
        assert outcome.runs == 2
        assert outcome.survived == 1
        assert outcome.metrics["survival"] == pytest.approx(0.5)
        assert outcome.metrics["throughput"] == pytest.approx(0.6)
        assert outcome.metrics["recovery"] == pytest.approx(200.0)

    def test_dominates_respects_metric_sense(self):
        better = {"survival": 1.0, "throughput": 0.9, "recovery": 50.0}
        worse = {"survival": 0.9, "throughput": 0.9, "recovery": 80.0}
        assert dominates(better, worse)
        assert not dominates(worse, better)
        # ties dominate nobody
        assert not dominates(better, dict(better))

    def test_pareto_front_keeps_undominated_and_ties(self):
        config = CampaignConfig()
        specs = [
            ("best-survival", {"survival": 1.0, "throughput": 0.5,
                               "recovery": 100.0}),
            ("best-throughput", {"survival": 0.8, "throughput": 0.9,
                                 "recovery": 100.0}),
            ("dominated", {"survival": 0.8, "throughput": 0.5,
                           "recovery": 200.0}),
            ("tied-with-best", {"survival": 1.0, "throughput": 0.5,
                                "recovery": 100.0}),
        ]
        outcomes = []
        for _name, metrics in specs:
            outcome = CellOutcome(config=config)
            outcome.metrics = metrics
            outcomes.append(outcome)
        front = pareto_front(outcomes)
        assert outcomes[0] in front
        assert outcomes[1] in front
        assert outcomes[2] not in front
        assert outcomes[3] in front  # exact tie: both stay undominated

    def test_weighted_scores_normalize_and_invert_recovery(self):
        config = CampaignConfig()
        good = CellOutcome(config=config)
        good.metrics = {"survival": 1.0, "throughput": 1.0,
                        "recovery": 10.0}
        bad = CellOutcome(config=config)
        bad.metrics = {"survival": 0.5, "throughput": 0.2,
                       "recovery": 500.0}
        weighted_scores([good, bad])
        assert good.score == pytest.approx(1.0)  # best on every axis
        assert bad.score == pytest.approx(0.0)

    def test_constant_metric_contributes_to_everyone(self):
        config = CampaignConfig()
        outcomes = []
        for recovery in (100.0, 200.0):
            outcome = CellOutcome(config=config)
            outcome.metrics = {"survival": 1.0, "throughput": 0.5,
                               "recovery": recovery}
            outcomes.append(outcome)
        weighted_scores(outcomes)
        # survival and throughput are constant: both cells get their full
        # weight; only recovery discriminates
        assert outcomes[0].score == pytest.approx(1.0)
        assert outcomes[1].score == pytest.approx(
            sweep.DEFAULT_WEIGHTS["survival"]
            + sweep.DEFAULT_WEIGHTS["throughput"])


class FakeEngine:
    """Records the seed set each cell was asked to run (CRN check)."""

    def __init__(self):
        self.calls = []

    def run(self, specs):
        self.calls.append([spec.seed for spec in specs])
        return [
            _record(spec.seed, spec.config,
                    rel_throughput=0.5 + 0.01 * (spec.seed % 3),
                    recovery_time=100.0 * spec.config.checkpoint_interval)
            for spec in specs
        ]


class TestRunSweep:
    def test_common_random_numbers_same_seed_set_per_cell(self):
        engine = FakeEngine()
        configs = cells(AXES)
        run_sweep(engine, configs, seeds=range(5))
        assert len(engine.calls) == 8
        assert all(call == list(range(5)) for call in engine.calls)

    def test_outcomes_ranked_best_first_with_pareto_marked(self):
        engine = FakeEngine()
        outcomes = run_sweep(engine, cells(AXES), seeds=range(5))
        scores = [outcome.score for outcome in outcomes]
        assert scores == sorted(scores, reverse=True)
        front = [outcome for outcome in outcomes if outcome.pareto]
        assert front  # at least one undominated cell
        # ckpt=10 cells strictly beat ckpt=40 cells on the fabricated
        # recovery metric, survival/throughput equal -> 40s dominated
        assert all(o.config.checkpoint_interval == 10 for o in front)
