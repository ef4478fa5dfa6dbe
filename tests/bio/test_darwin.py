"""DarwinEngine: real vs modeled execution, match sets, merging."""

import pytest

from repro.bio import (
    DarwinEngine,
    DatabaseProfile,
    QueueIndex,
    merge_match_sets,
)
from repro.bio.darwin import empty_match_set
from repro.errors import BioError


class TestConstruction:
    def test_real_mode_requires_database(self, small_profile):
        with pytest.raises(BioError):
            DarwinEngine(small_profile, mode="real")

    def test_unknown_mode_rejected(self, small_profile):
        with pytest.raises(BioError):
            DarwinEngine(small_profile, mode="quantum")

    def test_size_mismatch_rejected(self, small_db):
        other = DatabaseProfile.synthetic("x", 5, seed=0)
        with pytest.raises(BioError):
            DarwinEngine(other, database=small_db, mode="real")


class TestRealAlignment:
    def test_full_queue_pair_count(self, darwin_real, small_profile):
        n = len(small_profile)
        queue = list(range(1, n + 1))
        result = darwin_real.align_partition(queue, queue)
        assert result["pairs"] == n * (n - 1) // 2

    def test_family_members_found_as_matches(self, darwin_real, small_db):
        n = len(small_db)
        queue = list(range(1, n + 1))
        result = darwin_real.align_partition(queue, queue)
        matched = {(m["i"], m["j"]) for m in result["match_set"]["matches"]}
        homologous = {
            (i, j)
            for i in queue for j in queue if i < j
            and small_db.entry(i).family is not None
            and small_db.entry(i).family == small_db.entry(j).family
        }
        assert homologous, "fixture must contain families"
        found = homologous & matched
        assert len(found) >= len(homologous) * 0.7

    def test_matches_sorted_and_above_threshold(self, darwin_real,
                                                small_profile):
        n = len(small_profile)
        queue = list(range(1, n + 1))
        matches = darwin_real.align_partition(queue, queue)["match_set"]["matches"]
        keys = [(m["i"], m["j"]) for m in matches]
        assert keys == sorted(keys)
        assert all(m["score"] >= darwin_real.match_threshold for m in matches)
        assert all(m["i"] < m["j"] for m in matches)

    def test_partition_must_be_subset_of_queue(self, darwin_real):
        with pytest.raises(BioError):
            darwin_real.align_partition([1, 99], [1, 2, 3])

    def test_cost_includes_init(self, darwin_real):
        result = darwin_real.align_partition([1], [1])
        assert result["pairs"] == 0
        assert result["cost"] >= darwin_real.init_cost()

    def test_partitioned_equals_whole(self, darwin_real, small_profile):
        """Union of per-TEU match sets == single-TEU run (no redundancy,
        no loss) — the paper's 'care was taken to rule out redundant
        comparisons'."""
        n = len(small_profile)
        queue = list(range(1, n + 1))
        whole = darwin_real.align_partition(queue, queue)["match_set"]
        parts = [queue[k::3] for k in range(3)]
        merged = merge_match_sets([
            darwin_real.align_partition(part, queue)["match_set"]
            for part in parts
        ])
        assert merged["count"] == whole["count"]
        assert merged["matches"] == whole["matches"]


class TestModeledAlignment:
    def test_deterministic(self, small_profile):
        darwin_a = DarwinEngine(small_profile, mode="modeled", seed=3)
        darwin_b = DarwinEngine(small_profile, mode="modeled", seed=3)
        queue = list(range(1, len(small_profile) + 1))
        result_a = darwin_a.align_partition(queue, queue)
        result_b = darwin_b.align_partition(queue, queue)
        assert result_a == result_b

    def test_family_pairs_always_reported(self, darwin_modeled,
                                          small_profile):
        queue = list(range(1, len(small_profile) + 1))
        matches = darwin_modeled.align_partition(queue, queue)["match_set"]
        matched = {(m["i"], m["j"]) for m in matches["matches"]}
        for i, j in small_profile.homologous_pairs():
            assert (i, j) in matched

    def test_cost_matches_cost_model(self, darwin_modeled, small_profile):
        queue = list(range(1, len(small_profile) + 1))
        result = darwin_modeled.align_partition(queue, queue)
        model = darwin_modeled.cost_model
        index = QueueIndex(small_profile, queue)
        base = model.teu_fixed_cost(small_profile, queue,
                                    index.locate(queue), index)
        assert result["cost"] >= base + darwin_modeled.init_cost()

    def test_sample_cap_respected(self, small_profile):
        darwin = DarwinEngine(small_profile, mode="modeled", seed=1,
                              random_match_rate=0.9, sample_cap=5)
        queue = list(range(1, len(small_profile) + 1))
        match_set = darwin.align_partition(queue, queue)["match_set"]
        assert len(match_set["matches"]) <= 5
        assert match_set["truncated"]
        assert match_set["count"] >= len(match_set["matches"])


class TestRefinement:
    def test_real_refinement_adds_pam(self, darwin_real, small_profile):
        queue = list(range(1, len(small_profile) + 1))
        first_pass = darwin_real.align_partition(queue, queue)["match_set"]
        refined = darwin_real.refine_match_set(first_pass)
        assert refined["cost"] > 0
        for match in refined["match_set"]["matches"]:
            assert "pam" in match
            assert match["pam"] > 0

    def test_modeled_refinement_family_pam_lower(self, darwin_modeled,
                                                 small_profile):
        queue = list(range(1, len(small_profile) + 1))
        first_pass = darwin_modeled.align_partition(queue, queue)["match_set"]
        refined = darwin_modeled.refine_match_set(first_pass)["match_set"]
        family_pams, random_pams = [], []
        for match in refined["matches"]:
            fam_i = small_profile.family_of(match["i"])
            fam_j = small_profile.family_of(match["j"])
            if fam_i >= 0 and fam_i == fam_j:
                family_pams.append(match["pam"])
            else:
                random_pams.append(match["pam"])
        if family_pams and random_pams:
            assert (sum(family_pams) / len(family_pams)
                    < sum(random_pams) / len(random_pams))

    def test_refining_empty_set(self, darwin_modeled):
        refined = darwin_modeled.refine_match_set(empty_match_set())
        assert refined["match_set"]["count"] == 0


class TestMergeMatchSets:
    def test_counts_are_exact(self):
        sets = [
            {"count": 3, "matches": [{"i": 1, "j": 2, "score": 90.0}],
             "truncated": True},
            {"count": 2, "matches": [{"i": 1, "j": 3, "score": 80.0}],
             "truncated": False},
        ]
        merged = merge_match_sets(sets)
        assert merged["count"] == 5
        assert merged["truncated"]

    def test_sorted_by_entry(self):
        sets = [
            {"count": 1, "matches": [{"i": 5, "j": 9, "score": 1.0}],
             "truncated": False},
            {"count": 1, "matches": [{"i": 1, "j": 2, "score": 1.0}],
             "truncated": False},
        ]
        merged = merge_match_sets(sets)
        assert [m["i"] for m in merged["matches"]] == [1, 5]

    def test_cap_applies(self):
        sets = [{"count": 10,
                 "matches": [{"i": i, "j": i + 1, "score": 1.0}
                             for i in range(10)],
                 "truncated": False}]
        merged = merge_match_sets(sets, sample_cap=4)
        assert len(merged["matches"]) == 4
        assert merged["truncated"]
        assert merged["count"] == 10

    def test_merge_of_nothing(self):
        assert merge_match_sets([]) == {
            "count": 0, "matches": [], "truncated": False
        }
