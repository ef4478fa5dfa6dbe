"""Figure 4: impact of the granularity level (# of TEUs) on CPU and WALL.

Paper setting: all-vs-all of a 522-entry dataset on the exclusive ik-sun
cluster (15 CPUs), sweeping the number of task execution units from 1 to
522. The scan's digits are garbled, so the assertions encode the anchors
the prose fixes:

* the 1-TEU scenario gives the best CPU time but one of the worst WALLs;
* CPU increases with n (Darwin re-initialization per TEU), nearly
  doubling by n = 522;
* WALL first falls (S1: parallelism), reaches its optimum around 50 TEUs
  — *more* than the 15 CPUs, because coarser partitions suffer stragglers
  (S2) — then rises again as overhead dominates (S3).
"""

from repro.workloads import reporting, scenarios
from repro.workloads.scenarios import PAPER_TEU_COUNTS

from .conftest import cached


def _compute():
    return scenarios.granularity_study(teu_counts=PAPER_TEU_COUNTS, seed=0)


def test_fig4_granularity_sweep(artifact):
    points = cached("fig4", _compute)
    artifact("fig4_granularity", reporting.granularity_table(points))
    anchors = reporting.granularity_segments(points)
    artifact("fig4_anchors", "\n".join(
        f"{key} = {value}" for key, value in sorted(anchors.items())
    ))

    by_teus = {p.teus: p for p in points}
    # Anchor 1: best CPU at a single TEU.
    assert anchors["best_cpu_at_1_teu"] is True
    # Anchor 2: CPU roughly doubles by n = 522 (paper: "almost doubled").
    assert 1.5 <= anchors["cpu_ratio_max_vs_1"] <= 2.6
    # Anchor 3: at n = 1, no parallelism — WALL ~ CPU.
    single = by_teus[1]
    assert single.wall_seconds >= 0.9 * single.cpu_seconds
    # Anchor 4 (the S2 effect): the WALL optimum needs MORE TEUs than the
    # 15 available CPUs.
    assert anchors["wall_optimum_teus"] > 15
    assert anchors["wall_optimum_teus"] <= 150
    # Anchor 5: the optimum is far better than no parallelism.
    assert anchors["wall_ratio_1_vs_optimum"] > 5
    # Anchor 6 (S3): very fine granularity is worse than the optimum.
    optimum = by_teus[anchors["wall_optimum_teus"]]
    assert by_teus[522].wall_seconds > 1.2 * optimum.wall_seconds
    # Anchor 7: 50 TEUs ~= 2% of pairwise alignments per TEU (paper).
    pairs_per_teu_fraction = 1 / 50
    assert abs(pairs_per_teu_fraction - 0.02) < 1e-9


def test_fig4_cpu_monotone_over_segments():
    """CPU grows with granularity segment means (robust to run noise)."""
    points = cached("fig4", _compute)
    def segment_mean(low, high):
        values = [p.cpu_seconds for p in points if low <= p.teus <= high]
        return sum(values) / len(values)

    s1 = segment_mean(1, 15)
    s2 = segment_mean(20, 100)
    s3 = segment_mean(150, 522)
    assert s1 < s2 < s3
