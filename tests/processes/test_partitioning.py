"""Queue files and TEU partitioning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bio import DatabaseProfile
from repro.errors import ReproError
from repro.processes import partitioning as P


class TestDescriptors:
    def test_range_queue(self):
        queue = P.range_queue(5)
        assert list(P.expand(queue)) == [1, 2, 3, 4, 5]
        assert P.descriptor_size(queue) == 5

    def test_list_queue_dedupes_and_sorts(self):
        queue = P.list_queue([3, 1, 3, 2])
        assert list(P.expand(queue)) == [1, 2, 3]

    def test_empty_queue_rejected(self):
        with pytest.raises(ReproError):
            P.range_queue(0)
        with pytest.raises(ReproError):
            P.list_queue([])

    def test_stride_expansion(self):
        descriptor = {"kind": "stride", "start": 2, "stride": 3, "hi": 11}
        assert list(P.expand(descriptor)) == [2, 5, 8, 11]
        assert P.descriptor_size(descriptor) == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            P.expand({"kind": "spiral"})
        with pytest.raises(ReproError):
            P.descriptor_size({"kind": "spiral"})

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=500))
    def test_size_matches_expansion(self, start, stride, hi):
        descriptor = {"kind": "stride", "start": start, "stride": stride,
                      "hi": hi}
        assert P.descriptor_size(descriptor) == len(P.expand(descriptor))


class TestPartitioning:
    @pytest.mark.parametrize("strategy", ["interleaved", "contiguous"])
    @pytest.mark.parametrize("n,granularity", [
        (10, 1), (10, 3), (10, 10), (522, 50), (100, 7),
    ])
    def test_partitions_cover_queue_exactly(self, strategy, n, granularity):
        queue = P.range_queue(n)
        partitions = P.make_partitions(queue, granularity, strategy)
        combined = sorted(
            entry for part in partitions for entry in P.expand(part)
        )
        assert combined == list(range(1, n + 1))

    def test_balanced_covers_queue(self):
        profile = DatabaseProfile.synthetic("p", 60, seed=1)
        queue = P.range_queue(60)
        partitions = P.make_partitions(queue, 7, "balanced", profile=profile)
        combined = sorted(
            entry for part in partitions for entry in P.expand(part)
        )
        assert combined == list(range(1, 61))

    def test_granularity_capped_at_queue_size(self):
        partitions = P.make_partitions(P.range_queue(4), 100)
        assert len(partitions) == 4

    def test_interleaved_range_uses_stride_descriptors(self):
        partitions = P.make_partitions(P.range_queue(1000), 50)
        assert all(part["kind"] == "stride" for part in partitions)
        # descriptors stay tiny regardless of queue size
        import json
        assert len(json.dumps(partitions)) < 50 * 70

    def test_interleaved_subset_queue(self):
        queue = P.list_queue([2, 4, 6, 8, 10])
        partitions = P.make_partitions(queue, 2)
        assert list(P.expand(partitions[0])) == [2, 6, 10]
        assert list(P.expand(partitions[1])) == [4, 8]

    def test_bad_granularity_rejected(self):
        with pytest.raises(ReproError):
            P.make_partitions(P.range_queue(10), 0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            P.make_partitions(P.range_queue(10), 2, "psychic")

    def test_balanced_requires_profile(self):
        with pytest.raises(ReproError):
            P.make_partitions(P.range_queue(10), 2, "balanced")


class TestBalance:
    def test_interleaved_beats_contiguous_on_pair_balance(self):
        """The triangular workload: contiguous ranges are badly imbalanced,
        striding fixes it — the reason `interleaved` is the default."""
        queue = P.range_queue(520)
        inter = P.partition_pair_counts(
            queue, P.make_partitions(queue, 20, "interleaved"))
        contig = P.partition_pair_counts(
            queue, P.make_partitions(queue, 20, "contiguous"))
        def imbalance(counts):
            return max(counts) / (sum(counts) / len(counts))
        assert imbalance(inter) < 1.1
        assert imbalance(contig) > 1.5

    def test_pair_counts_sum_to_total(self):
        queue = P.range_queue(100)
        for strategy in ("interleaved", "contiguous"):
            counts = P.partition_pair_counts(
                queue, P.make_partitions(queue, 9, strategy))
            assert sum(counts) == 100 * 99 // 2

    def test_balanced_strategy_is_most_even_by_cost(self):
        profile = DatabaseProfile.synthetic("p", 200, seed=5)
        queue = P.range_queue(200)

        def cost_spread(partitions):
            from repro.bio import CostModel, QueueIndex
            model = CostModel()
            index = QueueIndex(profile, P.expand(queue))
            costs = []
            for part in partitions:
                entries = P.expand(part)
                costs.append(model.teu_fixed_cost(
                    profile, entries, index.locate(entries), index))
            return max(costs) / (sum(costs) / len(costs))

        balanced = cost_spread(P.make_partitions(
            queue, 8, "balanced", profile=profile))
        contiguous = cost_spread(P.make_partitions(queue, 8, "contiguous"))
        assert balanced < contiguous
        assert balanced < 1.05

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=300),
           st.integers(min_value=1, max_value=40))
    def test_property_cover_disjoint(self, n, granularity):
        queue = P.range_queue(n)
        partitions = P.make_partitions(queue, granularity)
        seen = set()
        for part in partitions:
            entries = set(P.expand(part))
            assert not (entries & seen)
            seen |= entries
        assert seen == set(range(1, n + 1))
