"""The store-wide PROV export is served from a kept document.

Differential: whatever happened to the graph between two exports, the
served document is byte-identical (canonical codec) to one built from
scratch off the durable event logs. Cost shape, in counts: an export
of an unchanged graph builds nothing, the first one after an append
builds once. Aliasing: a caller may edit the document and its sections
without the next export seeing it.
"""

from unittest import mock

from repro.core.engine.operator_console import OperatorConsole
from repro.prov import LineageRecord, ProvenanceGraph, lineage_records
from repro.store import codec

from .conftest import diamond_server, run_diamond


def rebuilt_document(server):
    """The export as it was before it was served: graph and document
    both built from the durable records, nothing kept."""
    return ProvenanceGraph(lineage_records(server.store)).to_prov_json()


def assert_served_equals_rebuilt(server):
    served = OperatorConsole(server).export_prov()
    assert codec.encode(served) == codec.encode(rebuilt_document(server))
    return served


def records_visited(export):
    """Run ``export()`` and count the lineage records it visits."""
    visited = []
    build = ProvenanceGraph._build_document

    def counting(records):
        records = list(records)
        visited.extend(records)
        return build(records)

    with mock.patch.object(ProvenanceGraph, "_build_document",
                           staticmethod(counting)):
        export()
    return len(visited)


class TestServedVsRebuilt:
    def test_appends_between_two_exports(self):
        server, env = diamond_server([])
        run_diamond(server, env, 1, 2)
        first = assert_served_equals_rebuilt(server)
        run_diamond(server, env, 3, 4)
        second = assert_served_equals_rebuilt(server)
        assert len(second["activity"]) == len(first["activity"]) + 3

    def test_rederivation_replaces_a_record_mid_log(self):
        server, env = diamond_server([])
        first_run = run_diamond(server, env, 1, 2)
        run_diamond(server, env, 3, 4)
        before = assert_served_equals_rebuilt(server)
        # Left of the first run is the oldest record: replacing it
        # re-indexes every record after it.
        server.restart_task(first_run, "Left")
        env.run_instance(first_run)
        after = assert_served_equals_rebuilt(server)
        assert codec.encode(after) != codec.encode(before)
        run_diamond(server, env, 5, 6)
        assert_served_equals_rebuilt(server)

    def test_instance_scoped_export_is_not_the_kept_document(self):
        server, env = diamond_server([])
        run_a = run_diamond(server, env, 1, 2)
        run_diamond(server, env, 3, 4)
        console = OperatorConsole(server)
        console.export_prov()
        scoped = console.export_prov(run_a)
        assert len(scoped["activity"]) == 3
        assert_served_equals_rebuilt(server)


class TestCostShape:
    def test_unchanged_store_visits_no_record(self):
        server, env = diamond_server([])
        run_diamond(server, env, 1, 2)
        console = OperatorConsole(server)
        assert records_visited(console.export_prov) == 3
        assert records_visited(console.export_prov) == 0

    def test_an_append_costs_one_rebuild_then_nothing(self):
        server, env = diamond_server([])
        console = OperatorConsole(server)
        run_diamond(server, env, 1, 2)
        console.export_prov()
        run_diamond(server, env, 3, 4)
        assert records_visited(console.export_prov) == 6
        assert records_visited(console.export_prov) == 0


class TestAliasing:
    def test_editing_a_returned_document_leaves_the_next_export_alone(self):
        server, env = diamond_server([])
        run_diamond(server, env, 1, 2)
        console = OperatorConsole(server)
        reference = codec.encode(rebuilt_document(server))
        document = console.export_prov()
        document["entity"]["repro:planted"] = {}
        del document["activity"][next(iter(document["activity"]))]
        document["used"].clear()
        del document["wasDerivedFrom"]
        document["extra"] = {}
        assert codec.encode(console.export_prov()) == reference

    def test_a_rebuild_never_edits_a_handed_out_attribute_dict(self):
        """``i2/y`` is first exported as a bare input; the export after
        the record that generates it must not write into the attribute
        dict the earlier export handed out."""
        graph = ProvenanceGraph()
        graph.add(LineageRecord(
            outputs=("i1/x",), inputs=("i2/y",), program="p",
            instance_id="i1", task="A", span="i1:A:1"))
        first = graph.to_prov_json()
        held = codec.encode(first)
        graph.add(LineageRecord(
            outputs=("i2/y",), inputs=(), program="p",
            instance_id="i2", task="B", span="i2:B:1"))
        second = graph.to_prov_json()
        assert second["entity"]["repro:i2/y"] == {"repro:instance": "i2"}
        assert codec.encode(first) == held
