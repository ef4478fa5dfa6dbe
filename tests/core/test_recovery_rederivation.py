"""Recovery re-derives construction-time state from the durable store.

A shard-local failover (and a standby promotion on another host) gets
nothing from the dead process but the store. Lease policy, quarantine
policy, shard identity, and a safely-seeded clock must all come back
from durable settings — not from arguments copied off the in-memory
corpse of the old server.
"""

import pytest

from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
)
from repro.errors import EngineError

from ..conftest import make_inline_server

ONE = """
PROCESS One
  OUTPUT v = A.v
  ACTIVITY A
    PROGRAM t.a
  END
END
"""


def one_programs():
    return {"t.a": lambda inputs, ctx: ProgramResult({"v": 1}, 1.0)}


def make_registry():
    registry = ProgramRegistry()
    for name, fn in one_programs().items():
        registry.register(name, fn)
    return registry


class TestDurableRederivation:
    def crashed_server(self, configure):
        server, env = make_inline_server(one_programs())
        server.define_template_ocr(ONE)
        configure(server)
        server.launch("One")
        env.step()
        server.crash()
        return server

    def test_lease_config_rederived_from_store(self):
        old = self.crashed_server(
            lambda server: server.enable_leases(120.0, 2.0))
        recovered = BioOperaServer.recover(
            old.store, make_registry(), environment=InlineEnvironment())
        assert recovered.leases.args == (120.0, 2.0)

    def test_all_four_policies_rederived_and_absent_ones_stay_off(self):
        """recover() reads every durable policy from the configuration
        space: the ones that were enabled come back with their exact
        arguments, the ones that never were stay off."""
        def configure(server):
            server.enable_memoization()
            server.enable_migration(0.5, 3.0, 4)

        old = self.crashed_server(configure)
        recovered = BioOperaServer.recover(
            old.store, make_registry(), environment=InlineEnvironment())
        assert recovered.memo is not None
        assert recovered.migration.args == (0.5, 3.0, 4)
        assert recovered.leases is None
        assert recovered.quarantine is None

    def test_quarantine_config_rederived_from_store(self):
        old = self.crashed_server(
            lambda server: server.enable_quarantine(2, 50.0, 10.0))
        recovered = BioOperaServer.recover(
            old.store, make_registry(), environment=InlineEnvironment())
        assert recovered.quarantine.args == (2, 50.0, 10.0)

    def test_storeonly_recovery_clock_resumes_past_newest_event(self):
        """With no environment and no explicit clock, recovery seeds a
        StepClock past the newest durable timestamp, so the recovery
        emissions never time-travel behind the existing log."""
        old = self.crashed_server(lambda server: None)
        recovered = BioOperaServer.recover(old.store, make_registry())
        newest = max(
            float(event["time"])
            for instance_id in old.store.instances.instance_ids()
            for event in old.store.instances.events(instance_id)
            if isinstance(event.get("time"), (int, float))
        )
        assert recovered.clock() >= newest
        for instance_id in recovered.store.instances.instance_ids():
            times = [event["time"] for event
                     in recovered.store.instances.events(instance_id)
                     if isinstance(event.get("time"), (int, float))]
            assert times == sorted(times)


class TestShardIdentity:
    def test_shard_index_persisted_and_prefixes_ids(self):
        registry = make_registry()
        server = BioOperaServer(registry=registry, shard_index=3)
        server.attach_environment(InlineEnvironment())
        server.define_template_ocr(ONE)
        instance_id = server.launch("One")
        assert instance_id.startswith("s03-pi-")

    def test_conflicting_shard_index_rejected(self):
        registry = make_registry()
        server = BioOperaServer(registry=registry, shard_index=3)
        with pytest.raises(EngineError):
            BioOperaServer(store=server.store, registry=registry,
                           shard_index=4)

    def test_recovery_rederives_shard_identity(self):
        registry = make_registry()
        server = BioOperaServer(registry=registry, shard_index=3)
        env = InlineEnvironment()
        server.attach_environment(env)
        server.define_template_ocr(ONE)
        first = server.launch("One")
        env.step()
        server.crash()
        recovered = BioOperaServer.recover(
            server.store, make_registry(),
            environment=InlineEnvironment())
        second = recovered.launch("One")
        assert second.startswith("s03-pi-")
        assert second != first


class TestRequestKeyedLaunch:
    def test_same_request_key_launches_once(self):
        server, env = make_inline_server(one_programs())
        server.define_template_ocr(ONE)
        first = server.launch("One", request_key="tenant0/r1")
        second = server.launch("One", request_key="tenant0/r1")
        assert first == second
        assert len(server.instances) == 1

    def test_request_key_survives_recovery(self):
        """A redelivered launch after failover must dedup against the
        durable request marker, not in-memory state."""
        server, env = make_inline_server(one_programs())
        server.define_template_ocr(ONE)
        first = server.launch("One", request_key="tenant0/r1")
        server.crash()
        recovered = BioOperaServer.recover(
            server.store, make_registry(),
            environment=InlineEnvironment())
        assert recovered.launch("One", request_key="tenant0/r1") == first
        assert len(recovered.instances) == 1
