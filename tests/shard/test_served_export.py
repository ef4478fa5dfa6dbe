"""The plane-wide PROV export is served from a merge the plane keeps.

Differential: after anything that changes a shard's lineage or the shard
set, ``ShardedConsole.export_prov()`` is byte-identical (canonical
codec) to a merge of documents built from scratch off every live shard's
durable event logs. Cost shape, in counts: an unchanged plane re-merges
nothing.
"""

from unittest import mock

from repro.faults import invariants
from repro.prov import ProvenanceGraph, lineage_records, \
    merge_prov_documents, provenance_graph
from repro.shard import ShardedConsole
from repro.shard import plane as plane_module
from repro.store import codec

from .conftest import make_plane


def rebuilt_document(plane):
    """The export as it was before it was served: every live shard's
    graph and document built from its durable records, merged anew."""
    return merge_prov_documents(
        ProvenanceGraph(lineage_records(shard.store)).to_prov_json()
        for shard in plane.shards if not shard.retired)


def assert_served_equals_rebuilt(plane):
    served = ShardedConsole(plane).export_prov()
    assert codec.encode(served) == codec.encode(rebuilt_document(plane))
    return served


def launch_and_run(kernel, plane, count, cost=0.4):
    requests = [plane.launch("t0", "job", {"cost": cost})
                for _ in range(count)]
    kernel.run()
    return [request.result for request in requests]


def documents_merged(export):
    """Run ``export()`` and count the shard documents it merges."""
    merged = []

    def counting(documents):
        documents = list(documents)
        merged.extend(documents)
        return merge_prov_documents(documents)

    with mock.patch.object(plane_module, "merge_prov_documents", counting):
        export()
    return len(merged)


class TestServedVsRebuilt:
    def test_appends_between_two_exports(self):
        kernel, plane = make_plane(3, seed=9)
        launch_and_run(kernel, plane, 6)
        first = assert_served_equals_rebuilt(plane)
        launch_and_run(kernel, plane, 5)
        second = assert_served_equals_rebuilt(plane)
        assert len(first["activity"]) == 6
        assert len(second["activity"]) == 11

    def test_migration_resyncs_both_graphs(self):
        kernel, plane = make_plane(3, seed=7)
        ids = launch_and_run(kernel, plane, 8)
        assert_served_equals_rebuilt(plane)
        moved = next(i for i in ids if i.startswith("s00-"))
        new_id = plane.migrator.migrate_instance(moved, 1)
        served = assert_served_equals_rebuilt(plane)
        instances = {attrs["repro:instance"]
                     for attrs in served["activity"].values()}
        assert new_id in instances and moved not in instances

    def test_a_drain_leaves_the_graph_to_its_first_reader(self):
        """A drain rewrites and adds nothing: the target keeps each
        copied completion for its graph's first reader, the source
        forgets the instance, and the first export adds each derivation
        once."""
        kernel, plane = make_plane(2, seed=7)
        launch_and_run(kernel, plane, 32)
        lineage = sum(len(list(lineage_records(shard.store)))
                      for shard in plane.shards)
        added = []
        real_add = ProvenanceGraph.add

        def counting(graph, record):
            added.append(record)
            real_add(graph, record)

        with mock.patch.object(ProvenanceGraph, "add", counting):
            moved = plane.drain_shard(0)
            drained = len(added)
            served = ShardedConsole(plane).export_prov()
        assert moved and drained == 0
        assert codec.encode(served) == codec.encode(rebuilt_document(plane))
        assert len(added) == lineage == 32
        assert len(plane.shards[0].server.obs.provenance.graph) == 0
        for shard in plane.shards:
            if not shard.retired:
                assert invariants._check_prov_equivalence(
                    shard.server) == []

    def test_shard_failover_builds_a_successor_hub(self):
        kernel, plane = make_plane(3, seed=5)
        launch_and_run(kernel, plane, 9)
        before = assert_served_equals_rebuilt(plane)
        graph = provenance_graph(plane.shards[1].server.store)
        plane.crash_shard(1)
        plane.recover_shard(1)
        kernel.run()
        assert provenance_graph(plane.shards[1].server.store) is not graph
        after = assert_served_equals_rebuilt(plane)
        assert codec.encode(after) == codec.encode(before)
        launch_and_run(kernel, plane, 4)
        assert_served_equals_rebuilt(plane)

    def test_grow_and_drain_change_the_shard_set(self):
        kernel, plane = make_plane(2, seed=9)
        launch_and_run(kernel, plane, 6)
        console = ShardedConsole(plane)
        assert_served_equals_rebuilt(plane)
        console.grow(1)
        assert_served_equals_rebuilt(plane)
        launch_and_run(kernel, plane, 6)
        assert_served_equals_rebuilt(plane)
        console.drain_shard(0)
        kernel.run()
        served = assert_served_equals_rebuilt(plane)
        assert len(served["activity"]) == 12
        assert not any(attrs["repro:instance"].startswith("s00-")
                       for attrs in served["activity"].values())


class TestCostShape:
    def test_unchanged_plane_merges_nothing(self):
        kernel, plane = make_plane(3, seed=9)
        launch_and_run(kernel, plane, 6)
        console = ShardedConsole(plane)
        assert documents_merged(console.export_prov) == 3
        assert documents_merged(console.export_prov) == 0
        # Consoles are made per call: the merge is the plane's.
        assert documents_merged(ShardedConsole(plane).export_prov) == 0
        launch_and_run(kernel, plane, 1)
        assert documents_merged(console.export_prov) == 3

    def test_the_kept_merge_holds_the_graphs_it_was_made_from(self):
        """A graph the plane only remembered by ``id()`` could be freed
        and its id reused by a successor with the same mutation count."""
        kernel, plane = make_plane(2, seed=9)
        launch_and_run(kernel, plane, 4)
        ShardedConsole(plane).export_prov()
        held = [graph for graph, _count in plane._prov_sources]
        assert all(
            graph is provenance_graph(shard.server.store)
            for graph, shard in zip(held, plane.shards))


class TestAliasing:
    def test_editing_a_returned_document_leaves_the_next_export_alone(self):
        kernel, plane = make_plane(2, seed=9)
        launch_and_run(kernel, plane, 4)
        console = ShardedConsole(plane)
        reference = codec.encode(rebuilt_document(plane))
        document = console.export_prov()
        document["entity"]["repro:planted"] = {}
        del document["activity"][next(iter(document["activity"]))]
        document["wasGeneratedBy"].clear()
        del document["used"]
        assert codec.encode(console.export_prov()) == reference
