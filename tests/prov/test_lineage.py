"""Lineage tracking: derivation queries and what a change invalidates."""

import pytest

from repro.errors import StoreError
from repro.prov import LineageRecord, ProvenanceGraph


def record(outputs, inputs, program="prog", **kwargs):
    return LineageRecord(
        outputs=tuple(outputs), inputs=tuple(inputs), program=program,
        instance_id="pi-1", task=program, **kwargs,
    )


@pytest.fixture()
def tower():
    """A miniature tower of information: dna -> genes -> proteins -> {msa, tree}."""
    return ProvenanceGraph([
        record(["genes"], ["dna"], program="genefinder"),
        record(["proteins"], ["genes"], program="translate"),
        record(["alignments"], ["proteins"], program="allvsall"),
        record(["msa"], ["alignments", "proteins"], program="msa"),
        record(["tree"], ["alignments"], program="phylo"),
    ])


def ancestors(graph, dataset):
    """Every dataset ``dataset`` (transitively) derives from."""
    return {inp for step in graph.ancestry(dataset)
            for inp in step["inputs"]}


class TestQueries:
    def test_producer_is_the_last_ancestry_step(self, tower):
        assert tower.ancestry("genes")[-1]["program"] == "genefinder"

    def test_underived_dataset_has_no_ancestry(self, tower):
        assert tower.ancestry("nothing") == []
        assert tower.ancestry("dna") == []
        assert tower.ancestry("msa") != []

    def test_no_path_to_an_underived_dataset_raises(self, tower):
        with pytest.raises(StoreError):
            tower.derivation_path("dna", "nothing")

    def test_ancestors(self, tower):
        assert ancestors(tower, "msa") == {
            "alignments", "proteins", "genes", "dna"
        }

    def test_descendants(self, tower):
        assert tower.descendants("proteins") == ["alignments", "msa", "tree"]

    def test_invalidated_by_input_change(self, tower):
        assert tower.derived_from(["dna"]) == {
            "genes", "proteins", "alignments", "msa", "tree"
        }

    def test_invalidated_by_algorithm_change(self, tower):
        # the paper: "recompute processes as ... algorithms change"
        direct = [output for r in tower.run_records("pi-1")
                  if r.program == "allvsall" for output in r.outputs]
        assert set(direct) | tower.derived_from(direct) == {
            "alignments", "msa", "tree"
        }


class TestRederivation:
    def test_rederivation_replaces_producer(self, tower):
        # recompute alignments with different parameters: new record wins
        tower.add(record(["alignments"], ["proteins"], program="allvsall",
                         parameters=(("threshold", 90),)))
        producers = [r for r in tower.dump()["records"]
                     if "alignments" in r["outputs"]]
        assert [r["parameters"] for r in producers] == [[["threshold", 90]]]
        # consumers still see it
        assert "msa" in tower.descendants("alignments")

    def test_len_counts_records(self, tower):
        assert len(tower) == 5
