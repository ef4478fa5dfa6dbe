"""Provenance graph: queries, diff, equivalence with a full rescan."""

import pytest

from repro.errors import StoreError
from repro.prov import (
    ProvenanceGraph, lineage_records, provenance_graph, relative_dataset,
)
from repro.store import codec

from .conftest import diamond_server, run_diamond


class TestQueries:
    @pytest.fixture()
    def setup(self):
        calls = []
        server, env = diamond_server(calls)
        iid = run_diamond(server, env, 1, 2)
        return server, env, iid

    def test_ancestry_runs_furthest_ancestor_first(self, setup):
        server, _env, iid = setup
        graph = provenance_graph(server.store)
        tasks = [s["task"] for s in graph.ancestry(f"{iid}/Join")]
        assert tasks[-1] == "Join"
        assert set(tasks) == {"Left", "Right", "Join"}
        assert tasks.index("Left") < tasks.index("Join")
        assert tasks.index("Right") < tasks.index("Join")

    def test_descendants_of_one_input_stop_at_its_branch(self, setup):
        server, _env, iid = setup
        graph = provenance_graph(server.store)
        downstream = graph.descendants(f"{iid}/wb:a")
        assert f"{iid}/Left" in downstream
        assert f"{iid}/Join" in downstream
        assert f"{iid}/Right" not in downstream

    def test_derivation_path_walks_the_chain(self, setup):
        server, _env, iid = setup
        graph = provenance_graph(server.store)
        steps = graph.derivation_path(f"{iid}/wb:b", f"{iid}/Join")
        assert [s["task"] for s in steps] == ["Right", "Join"]

    def test_derivation_path_raises_when_unconnected(self, setup):
        server, _env, iid = setup
        graph = provenance_graph(server.store)
        with pytest.raises(StoreError):
            graph.derivation_path(f"{iid}/wb:a", f"{iid}/wb:b")

    def test_relative_dataset_strips_the_instance_prefix(self, setup):
        _server, _env, iid = setup
        assert relative_dataset(f"{iid}/wb:a", iid) == "wb:a"
        assert relative_dataset("other/wb:a", iid) == "other/wb:a"


class TestEquivalence:
    def test_live_view_matches_full_rescan_after_runs(self):
        calls = []
        server, env = diamond_server(calls)
        for a, b in [(1, 2), (3, 4), (5, 6)]:
            run_diamond(server, env, a, b)
        view = server.store.observability.provenance
        rebuilt = ProvenanceGraph(lineage_records(server.store))
        assert codec.encode(view.graph.dump()) == \
            codec.encode(rebuilt.dump())

    def test_rederivation_replaces_not_duplicates(self):
        calls = []
        server, env = diamond_server(calls)
        iid = run_diamond(server, env, 1, 2)
        # Force Join to re-derive: its outputs replace the old record in
        # both the live view and a from-scratch rebuild, byte-identically.
        server.restart_task(iid, "Join")
        env.run_instance(iid)
        view = server.store.observability.provenance
        rebuilt = ProvenanceGraph(lineage_records(server.store))
        assert codec.encode(view.graph.dump()) == \
            codec.encode(rebuilt.dump())
        assert len([r for r in view.graph.run_records(iid)
                    if r.task == "Join"]) == 1


class TestDiff:
    def test_diff_flags_the_changed_branch(self):
        calls = []
        server, env = diamond_server(calls)
        run_a = run_diamond(server, env, 1, 2)
        run_b = run_diamond(server, env, 1, 9)
        graph = provenance_graph(server.store)
        diff = graph.diff_runs(run_a, run_b)
        assert diff["only_a"] == [] and diff["only_b"] == []
        assert set(diff["unchanged"]) == {"Left", "Right", "Join"}

    def test_diff_raises_typed_error_for_unknown_run(self):
        calls = []
        server, env = diamond_server(calls)
        run_a = run_diamond(server, env, 1, 2)
        graph = provenance_graph(server.store)
        with pytest.raises(StoreError):
            graph.diff_runs(run_a, "no-such-run")
