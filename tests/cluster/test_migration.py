"""Kill-and-restart load balancing (the paper's Section 5.4 discussion)."""


from repro.cluster import NodeSpec, SimKernel, SimulatedCluster
from repro.core.engine import BioOperaServer, ProgramRegistry, ProgramResult

ONE_TASK = """
PROCESS P
  ACTIVITY A
    PROGRAM w.unit
  END
END
"""


def build(migration: bool, seed: int = 1, cost: float = 1000.0):
    kernel = SimKernel(seed=seed)
    cluster = SimulatedCluster(
        kernel,
        [NodeSpec("busy", 1, 1.0), NodeSpec("idle", 1, 1.0)],
        execution_noise=0.0,
    )
    registry = ProgramRegistry()
    registry.register("w.unit",
                      lambda i, c: ProgramResult({"v": 1}, cost=cost))
    server = BioOperaServer(registry=registry, seed=seed)
    server.attach_environment(cluster)
    if migration:
        server.enable_migration()
    server.define_template_ocr(ONE_TASK)
    return kernel, cluster, server


def starve_then_free(kernel, cluster, server):
    """Launch onto a node that then gets grabbed by other users while
    another node frees up — the migration-favourable pattern."""
    cluster.set_external_load("idle", 1.0)
    iid = server.launch("P")
    kernel.run(until=10.0)
    cluster.set_external_load("busy", 1.0)
    cluster.set_external_load("idle", 0.0)
    return iid


class TestMigration:
    def test_static_job_waits_out_preemption(self):
        kernel, cluster, server = build(migration=False)
        iid = starve_then_free(kernel, cluster, server)
        assert cluster.run_until_instance_done(iid) == "completed"
        assert server.metrics.get("jobs_migrated", 0) == 0

    def test_migration_moves_starving_job(self):
        kernel, cluster, server = build(migration=True)
        iid = starve_then_free(kernel, cluster, server)
        assert cluster.run_until_instance_done(iid) == "completed"
        assert server.metrics["jobs_migrated"] >= 1
        events = list(server.store.instances.events(iid))
        assert any(e.get("reason") == "migrated" for e in events)

    def test_migration_wins_when_user_fills_one_node_forever(self):
        """If the preempting user camps on the job's node while another is
        free, kill-and-restart beats leave-in-place."""
        walls = {}
        for migration in (False, True):
            kernel, cluster, server = build(migration=migration)
            cluster.set_external_load("idle", 1.0)
            kernel.run(until=1.0)  # let the load report land: place on busy
            iid = server.launch("P")
            kernel.run(until=50.0)
            cluster.set_external_load("busy", 1.0)   # camps forever
            cluster.set_external_load("idle", 0.0)
            if not migration:
                # without migration the job starves; free it eventually
                kernel.schedule(5000.0, cluster.set_external_load, "busy", 0.0)
            walls[migration] = None
            cluster.run_until_instance_done(iid)
            walls[migration] = kernel.now
        assert walls[True] < walls[False]

    def test_migration_does_not_fire_when_no_better_node(self):
        kernel, cluster, server = build(migration=True)
        iid = server.launch("P")
        kernel.run(until=10.0)
        # both nodes equally loaded: nothing to gain
        cluster.set_external_load("busy", 0.9)
        cluster.set_external_load("idle", 0.9)
        kernel.run(until=100.0)
        assert server.metrics.get("jobs_migrated", 0) == 0

    def test_migration_cancels_inflight_dispatch_cleanly(self):
        """A migrated job whose dispatch message was still in the network
        must not start as a zombie and slow the replacement down."""
        kernel, cluster, server = build(migration=True)
        iid = starve_then_free(kernel, cluster, server)
        cluster.run_until_instance_done(iid)
        # only the final attempt's job may have run on the idle node
        assert kernel.now < 1100.0

    def test_policy_survives_a_server_crash(self):
        """The migration policy is durable like leases, quarantine and
        memoisation: the recovered server still moves a starving job."""
        kernel, cluster, server = build(migration=True)
        cluster.crash_server()
        recovered = cluster.recover_server()
        assert recovered.migration.args == server.migration.args
        iid = starve_then_free(kernel, cluster, recovered)
        assert cluster.run_until_instance_done(iid) == "completed"
        assert recovered.metrics["jobs_migrated"] >= 1

    def test_migrated_reason_is_infrastructure(self):
        from repro.core.engine.events import INFRASTRUCTURE_REASONS

        assert "migrated" in INFRASTRUCTURE_REASONS
