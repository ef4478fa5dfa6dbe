"""Provenance view: folded from the lineage log across crashes."""

import pytest

from repro.core.engine import BioOperaServer, InlineEnvironment
from repro.errors import StoreError
from repro.faults.plan import FaultAction
from repro.faults.points import FaultInjector, InjectedCrash, installed
from repro.prov import ProvenanceGraph
from repro.store import codec

from .conftest import diamond_registry, diamond_server, run_diamond


def _equivalent(store) -> bool:
    view = store.observability.provenance
    rebuilt = ProvenanceGraph.from_records(store.data.lineage_records())
    return (view.in_sync(store)
            and codec.encode(view.graph.dump())
            == codec.encode(rebuilt.dump()))


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
            FaultAction("store.checkpoint.post-snapshot", "crash")])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                server.obs.checkpoint()
        server.crash()
        recovered, _ = _recover(server)
        assert recovered.store.kv.keys("obs/") == []
        assert _equivalent(recovered.store)

    def test_chaos_checkpoints_never_diverge(self):
        """Crash in every store-checkpoint window, on the first and the
        second checkpoint in turn; each recovery must present an
        equivalent graph and keep running."""
        for point in ("store.checkpoint.begin",
                      "store.checkpoint.post-snapshot",
                      "store.checkpoint.truncate",
                      "store.checkpoint.post-truncate"):
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
    def test_redelivered_records_are_skipped(self):
        calls = []
        server, env = diamond_server(calls)
        iid = run_diamond(server, env, 1, 2)
        view = server.store.observability.provenance
        before = codec.encode(view.graph.dump())
        # Redeliver an already-folded record: idempotent, not a fork.
        view.on_lineage(0, server.store.data.lineage_records()[0])
        assert codec.encode(view.graph.dump()) == before
        assert iid in view.graph.instance_ids()

    def test_gap_in_the_stream_raises(self):
        calls = []
        server, env = diamond_server(calls)
        run_diamond(server, env, 1, 2)
        view = server.store.observability.provenance
        with pytest.raises(StoreError):
            view.on_lineage(view.cursor + 5,
                            server.store.data.lineage_records()[0])
