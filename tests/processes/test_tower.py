"""Tower of information: nesting, data flow across levels, lineage."""

import pytest

from repro.core.engine import BioOperaServer, InlineEnvironment
from repro.core.model import SubprocessTask
from repro.processes import build_tower_template, install_tower
from repro.prov import lineage_records
from repro.store import LineageGraph


@pytest.fixture()
def tower_server(darwin_modeled):
    server = BioOperaServer(seed=4)
    env = InlineEnvironment(nodes={"n1": 8})
    server.attach_environment(env)
    install_tower(server, darwin_modeled)
    return server, env


class TestTemplate:
    def test_validates(self):
        assert build_tower_template().validate() == []

    def test_embeds_all_vs_all_as_subprocess(self):
        template = build_tower_template()
        pairwise = template.graph.tasks["PairwiseAlignments"]
        assert isinstance(pairwise, SubprocessTask)
        assert pairwise.template_name == "all_vs_all"

    def test_figure1_levels_present(self):
        template = build_tower_template()
        expected = {
            "GeneLocation", "Translation", "PairwiseAlignments",
            "Distances", "MultipleAlignment", "PhylogeneticTree",
            "AncestralSequences", "SecondaryStructure",
            "FunctionPrediction",
        }
        assert set(template.graph.tasks) == expected

    def test_ancestral_needs_both_msa_and_tree(self):
        template = build_tower_template()
        ancestral = template.graph.tasks["AncestralSequences"]
        assert ancestral.join == "and"
        sources = {c.source for c in template.graph.incoming(
            "AncestralSequences")}
        assert sources == {"MultipleAlignment", "PhylogeneticTree"}


class TestExecution:
    def launch(self, server, env, **overrides):
        inputs = {
            "genome_name": "synthetic_genome",
            "db_name": "mini_db",
            "granularity": 4,
        }
        inputs.update(overrides)
        iid = server.launch("tower_of_information", inputs)
        env.run_instance(iid)
        return iid

    def test_completes_with_outputs(self, tower_server):
        server, env = tower_server
        iid = self.launch(server, env)
        instance = server.instance(iid)
        assert instance.status == "completed"
        assert set(instance.outputs) == {
            "functions", "tree", "structure_confidence"}
        assert 0.0 < instance.outputs["structure_confidence"] <= 1.0

    def test_nested_all_vs_all_ran(self, tower_server):
        server, env = tower_server
        iid = self.launch(server, env)
        instance = server.instance(iid)
        nested = instance.find_state("PairwiseAlignments")
        assert nested.status == "completed"
        assert nested.outputs["match_count"] > 0
        # the nested instance has its own frames
        assert "PairwiseAlignments/" in instance.frames

    def test_match_count_flows_to_distances(self, tower_server):
        server, env = tower_server
        iid = self.launch(server, env)
        instance = server.instance(iid)
        distances = instance.find_state("Distances")
        pairwise = instance.find_state("PairwiseAlignments")
        assert distances.outputs["pairs_used"] == \
            pairwise.outputs["match_count"]

    def test_lineage_records_every_activity(self, tower_server):
        server, env = tower_server
        iid = self.launch(server, env)
        records = list(lineage_records(server.store))
        graph = LineageGraph(records)
        produced = {r.task for r in records if r.instance_id == iid}
        assert "GeneLocation" in produced
        assert "FunctionPrediction" in produced
        assert any("Chunk" in task for task in produced)  # nested TEUs

    def test_genome_size_influences_cost(self, darwin_modeled):
        costs = []
        for size in (50_000, 500_000):
            server = BioOperaServer(seed=4)
            env = InlineEnvironment()
            server.attach_environment(env)
            install_tower(server, darwin_modeled)
            iid = server.launch("tower_of_information", {
                "genome_name": "g", "db_name": "d",
                "genome_size": size, "granularity": 2,
            })
            env.run_instance(iid)
            costs.append(
                server.instance(iid).find_state("GeneLocation").cost)
        assert costs[1] > costs[0]
