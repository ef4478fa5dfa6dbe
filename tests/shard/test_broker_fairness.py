"""Fairness property: a noisy tenant cannot degrade a quiet tenant.

The quiet tenant submits one launch every ~1.37 s (a light, interactive
workload). The noisy tenant floods thousands of launches at t=0 so its
backlog outlives the whole measurement window. The broker's per-tenant
queues + front-of-ring re-entry must keep the quiet tenant's p99 ack
latency within 2x of its quiet-plane baseline — the bound a global FIFO
intake would miss by an order of magnitude (the quiet tenant would sit
behind the entire flood).
"""

from repro.obs.merge import jain_index, percentile
from repro.shard.broker import ShardBroker

from .conftest import make_plane

QUIET_PROBES = 40
QUIET_SPACING = 1.37
NOISY_FLOOD = 4_000


def quiet_latencies(noisy: bool):
    """Run the scenario and return the quiet tenant's ack latencies."""
    kernel, plane = make_plane(shards=4, seed=3)

    def probe():
        plane.launch("quiet", "job", {"cost": 5.0})

    for index in range(QUIET_PROBES):
        kernel.schedule(2.0 + index * QUIET_SPACING, probe,
                        label=f"quiet probe {index}")
    if noisy:
        for _ in range(NOISY_FLOOD):
            plane.launch("noisy", "job", {"cost": 5.0})
    horizon = 2.0 + QUIET_PROBES * QUIET_SPACING + 50.0
    plane.run_until(
        lambda: len(plane.broker.tenant_latencies.get("quiet", ()))
        >= QUIET_PROBES,
        horizon=horizon * 100,
    )
    return plane.broker.tenant_latencies["quiet"], plane


class TestNoisyNeighbour:
    def test_noisy_tenant_cannot_double_quiet_p99(self, monkeypatch):
        # Slow broker service (250 ms/request) so the noisy backlog
        # outlives the whole probe window — the quiet tenant is always
        # contending.
        monkeypatch.setattr(ShardBroker, "SERVICE_TIME", 0.25)
        baseline, _ = quiet_latencies(noisy=False)
        contended, plane = quiet_latencies(noisy=True)
        # the flood really was live for the whole window
        assert plane.broker.queue_depth(0, "noisy") > 0
        ratio = percentile(contended, 0.99) / percentile(baseline, 0.99)
        assert ratio <= 2.0, f"quiet p99 degraded {ratio:.2f}x"

    def test_equal_tenants_complete_fairly(self):
        """Eight equally-demanding tenants: round-robin draining keeps
        Jain's index over completed work ~1 at every point in time."""
        kernel, plane = make_plane(shards=4, seed=5)
        for index in range(800):
            plane.launch(f"tenant{index % 8}", "job", {"cost": 0.1})
        # stop mid-drain: fairness must hold *during* the burst too
        plane.run_until(lambda: plane.broker.completed >= 400,
                        horizon=1e6)
        counts = [plane.broker.tenant_completed.get(f"tenant{i}", 0)
                  for i in range(8)]
        assert jain_index(counts) >= 0.99, counts
