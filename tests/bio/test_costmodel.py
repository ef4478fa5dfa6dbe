"""Database profiles and the activity cost model."""

import numpy as np
import pytest

from repro.bio import CostModel, DatabaseProfile, QueueIndex
from repro.errors import BioError


class TestProfile:
    def test_from_database(self, small_db, small_profile):
        assert len(small_profile) == len(small_db)
        for index in range(1, len(small_db) + 1):
            assert small_profile.length(index) == len(small_db.entry(index))

    def test_family_partners_match_database(self, small_db, small_profile):
        for index in range(1, len(small_db) + 1):
            entry = small_db.entry(index)
            partners = small_profile.family_partners(index)
            if entry.family is None:
                assert partners == []
            else:
                expected = [
                    i for i in range(1, len(small_db) + 1)
                    if i != index and small_db.entry(i).family == entry.family
                ]
                assert sorted(partners) == expected

    def test_singleton_has_no_partners(self):
        profile = DatabaseProfile("p", np.array([100, 200]),
                                  np.array([-1, -1]))
        assert profile.family_partners(1) == []

    def test_homologous_pairs_sorted_i_lt_j(self):
        profile = DatabaseProfile.synthetic("p", 60, seed=2,
                                            family_fraction=0.5)
        pairs = profile.homologous_pairs()
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_synthetic_deterministic(self):
        p1 = DatabaseProfile.synthetic("p", 100, seed=5)
        p2 = DatabaseProfile.synthetic("p", 100, seed=5)
        assert (p1.lengths == p2.lengths).all()
        assert (p1.families == p2.families).all()

    def test_synthetic_length_bounds(self):
        profile = DatabaseProfile.synthetic("p", 200, seed=1,
                                            min_length=50, max_length=500)
        assert profile.lengths.min() >= 50
        assert profile.lengths.max() <= 500

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(BioError):
            DatabaseProfile("p", np.array([1, 2]), np.array([0]))

    def test_empty_rejected(self):
        with pytest.raises(BioError):
            DatabaseProfile("p", np.array([]), np.array([]))


def fixed_cost(model, profile, partition, queue):
    index = QueueIndex(profile, queue)
    return model.teu_fixed_cost(profile, partition, index.locate(partition),
                                index)


def pair_count(partition, queue):
    positions = np.searchsorted(queue, partition)
    return CostModel().teu_pair_count(positions, len(queue))


class TestCostModel:
    def test_init_cost_grows_with_db(self):
        model = CostModel()
        assert model.init_cost(80_000) > model.init_cost(522) > 0

    def test_pair_costs_scale_with_cells(self):
        model = CostModel()
        assert model.fixed_pair_cost(200, 300) == pytest.approx(
            2 * model.fixed_pair_cost(100, 300)
        )

    def test_refine_costlier_than_fixed(self):
        model = CostModel()
        assert (model.refine_pair_cost(360, 360)
                > model.fixed_pair_cost(360, 360))

    def test_teu_pair_count_triangular(self):
        queue = list(range(1, 11))
        total = sum(pair_count([entry], queue) for entry in queue)
        assert total == 45  # C(10, 2)

    def test_teu_pair_count_excludes_earlier_entries(self):
        assert pair_count([10], list(range(1, 11))) == 0
        assert pair_count([1], list(range(1, 11))) == 9

    def test_teu_fixed_cost_matches_bruteforce(self):
        model = CostModel()
        profile = DatabaseProfile.synthetic("p", 30, seed=3)
        queue = list(range(1, 31))
        partition = [2, 9, 17]
        expected = sum(
            model.fixed_pair_cost(profile.length(i), profile.length(j))
            for i in partition for j in queue if j > i
        )
        assert fixed_cost(model, profile, partition, queue) == pytest.approx(
            expected
        )

    def test_teu_fixed_cost_with_subset_queue(self):
        model = CostModel()
        profile = DatabaseProfile.synthetic("p", 30, seed=3)
        queue = [1, 5, 9, 13, 21]
        partition = [5, 13]
        expected = sum(
            model.fixed_pair_cost(profile.length(i), profile.length(j))
            for i in partition for j in queue if j > i
        )
        assert fixed_cost(model, profile, partition, queue) == pytest.approx(
            expected
        )

    def test_partition_costs_sum_to_total(self):
        """Splitting the queue into TEUs conserves total alignment cost."""
        model = CostModel()
        profile = DatabaseProfile.synthetic("p", 40, seed=4)
        queue = list(range(1, 41))
        partitions = [queue[k::5] for k in range(5)]
        total = sum(
            fixed_cost(model, profile, part, queue) for part in partitions
        )
        whole = fixed_cost(model, profile, queue, queue)
        assert total == pytest.approx(whole)

    def test_calibrate_sets_positive_rate(self, small_db):
        model = CostModel()
        rate = model.calibrate(small_db, sample_pairs=2)
        assert rate > 0
        assert model.cell_rate == rate
