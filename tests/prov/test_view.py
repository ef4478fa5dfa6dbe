"""Provenance view: folded from the event logs across crashes."""

import pytest

from repro.core.engine import BioOperaServer, InlineEnvironment
from repro.errors import StoreError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.prov import ProvenanceGraph, lineage_records
from repro.store import codec

from .conftest import diamond_registry, diamond_server, run_diamond


def _equivalent(store) -> bool:
    view = store.observability.provenance
    rebuilt = ProvenanceGraph(lineage_records(store))
    return codec.encode(view.graph.dump()) == codec.encode(rebuilt.dump())


def _recover(server):
    calls = []
    store = server.store.simulate_crash()
    return BioOperaServer.recover(
        store, diamond_registry(calls), environment=InlineEnvironment()
    ), calls


class TestCheckpointRecovery:
    """The hub's checkpoint compacts the store and stores no graph: a
    crash anywhere inside it recovers a graph folded from the log."""

    def test_crash_mid_checkpoint_recovers_equivalent(self):
        calls = []
        server, env = diamond_server(calls)
        run_diamond(server, env, 1, 2)
        injector = FaultInjector([
            FaultAction("store.checkpoint.chain-extended", "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                server.obs.checkpoint()
        server.crash()
        recovered, _ = _recover(server)
        assert recovered.store.kv.keys("obs/") == []
        assert _equivalent(recovered.store)

    def test_chaos_checkpoints_never_diverge(self):
        """Crash in every store-checkpoint window the run reaches (an
        event log never supersedes enough to rewrite the chain), on the
        first and the second checkpoint in turn; each recovery must
        present an equivalent graph and keep running."""
        for point in ("store.checkpoint.begin",
                      "store.checkpoint.chain-extended"):
            for at_hit in (1, 2):
                calls = []
                server, env = diamond_server(calls)
                run_diamond(server, env, 1, 2)
                injector = FaultInjector([
                    FaultAction(point, "crash", at_hit=at_hit)])
                with installed(injector):
                    try:
                        server.obs.checkpoint()
                        run_diamond(server, env, 3, 4)
                        server.obs.checkpoint()
                    except InjectedCrash:
                        pass
                assert injector.fired, (point, at_hit)
                server.crash()
                recovered, _ = _recover(server)
                assert _equivalent(recovered.store), (point, at_hit)


class TestLiveApplication:
    def test_redelivered_completions_are_skipped(self):
        calls = []
        server, env = diamond_server(calls)
        iid = run_diamond(server, env, 1, 2)
        view = server.store.observability.provenance
        before = codec.encode(view.graph.dump())
        # Redeliver the whole folded log: idempotent, not a fork.
        events = list(server.store.instances.events(iid))
        server.obs.views.apply_events(iid, 0, events)
        assert codec.encode(view.graph.dump()) == before
        assert iid in view.graph.instance_ids()

    def test_gap_in_the_stream_raises(self):
        calls = []
        server, env = diamond_server(calls)
        iid = run_diamond(server, env, 1, 2)
        cursor = server.obs.views.cursors[iid]
        completion = [event for event in server.store.instances.events(iid)
                      if event["type"] == "task_completed"][-1]
        with pytest.raises(StoreError):
            server.obs.views.apply_events(iid, cursor + 5, [completion])

    def test_a_completion_carries_its_derivation_relative_to_the_instance(
            self):
        calls = []
        server, env = diamond_server(calls)
        iid = run_diamond(server, env, 1, 2)
        for event in server.store.instances.events(iid):
            if event["type"] == "task_completed":
                lineage = event["lineage"]
                assert lineage["outputs"][0] == event["path"]
                assert not any(name.startswith(iid) for name in
                               lineage["inputs"] + lineage["outputs"])
        [join] = [record for record in lineage_records(server.store)
                  if record.task == "Join"]
        assert join.span == f"{iid}:Join:1"
        assert all(name.startswith(f"{iid}/") for name in join.inputs)
