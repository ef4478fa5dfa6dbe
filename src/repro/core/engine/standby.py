"""Hot-standby BioOpera server — the paper's stated future work.

"As part of future work, we intend to provide a backup architecture for
the BioOpera server so that if a server fails or requires maintenance,
the backup can assume control and continue execution smoothly"
(Conclusions). This module implements that architecture over the existing
recovery machinery:

* the primary serves normally and emits liveness heartbeats — in the
  simulated cluster these are real network messages to the
  :data:`~repro.cluster.network.STANDBY` endpoint, so a partition between
  primary and standby silences them exactly like a dead primary would;
* a :class:`StandbyMonitor` watches them; after ``takeover_after``
  seconds of silence it **promotes** a standby: a fresh server is rebuilt
  from the shared durable store and attached to the cluster by
  :meth:`~repro.cluster.SimulatedCluster.recover_server`, the same
  failover routine as cold recovery;
* promotion is decided on *silence alone* — the monitor cannot peek at
  the primary's ``up`` flag, because across a partition nobody can. A
  split brain (healthy primary behind a cut, promoted standby in front
  of it) is therefore possible and must be **safe**, not impossible:
  promotion durably bumps the server epoch in the shared store, the
  PECs reject the old primary's stale-epoch dispatches, the new primary
  rejects its stale-epoch reports, and the old primary fences itself the
  moment it consults the store;
* because every state transition was persisted before the primary acted
  on it, the standby resumes every running instance without losing
  completed work — the downtime shrinks from "until an operator restarts
  the server" to the detection window.

The monitor runs on the cluster's simulation kernel (see
:func:`attach_standby`); tests can also drive :meth:`StandbyMonitor.check`
by hand.
"""

from __future__ import annotations

from typing import Optional

from .server import BioOperaServer


class StandbyMonitor:
    """Watches a cluster's primary server and promotes a standby on
    silence.

    Parameters
    ----------
    cluster:
        The :class:`~repro.cluster.SimulatedCluster` whose ``server`` is
        the primary; its kernel is the time source, and its
        ``recover_server`` is the failover a promotion runs.
    takeover_after:
        Seconds of primary silence before promotion.
    """

    def __init__(self, cluster, takeover_after: float = 60.0):
        self._cluster = cluster
        self.takeover_after = takeover_after
        self.last_heartbeat = cluster.kernel.now
        self.takeovers = 0
        self.enabled = True

    # ------------------------------------------------------------------

    def receive_heartbeat(self) -> None:
        """A heartbeat message arrived over the network. Unconditional:
        the monitor knows only what reaches it, not the primary's state."""
        self.last_heartbeat = self._cluster.kernel.now

    def silence(self) -> float:
        return self._cluster.kernel.now - self.last_heartbeat

    def check(self) -> Optional[BioOperaServer]:
        """Promote the standby if the primary has been silent too long.

        Returns the new server when a takeover happened, else None.
        Silence is the *only* input: a partitioned-but-healthy primary is
        indistinguishable from a dead one, so this can and will promote
        into a split brain — which the epoch fencing makes safe.
        """
        if not self.enabled:
            return None
        if self.silence() < self.takeover_after:
            return None
        return self.promote()

    def promote(self) -> BioOperaServer:
        """Unconditionally fail the cluster over to a fresh server.

        The failover is :meth:`SimulatedCluster.recover_server` on the
        shared store — the same routine as cold recovery. Its server
        constructor durably bumps the epoch in the store before the
        replacement dispatches anything, which is what fences a
        still-live old primary out of the cluster.
        """
        replacement = self._cluster.recover_server()
        replacement.obs.metrics.inc("standby_takeovers")
        self.takeovers += 1
        self.last_heartbeat = self._cluster.kernel.now
        return replacement


def attach_standby(cluster, takeover_after: float = 60.0,
                   check_interval: float = 15.0) -> StandbyMonitor:
    """Install a hot standby on a :class:`SimulatedCluster`.

    The monitor polls on the simulation kernel. Heartbeats are real
    network messages from the :data:`~repro.cluster.network.SERVER`
    endpoint to :data:`~repro.cluster.network.STANDBY`, so a partition
    between the two looks exactly like a dead primary — the split-brain
    case the epoch fencing exists for. Returns the monitor;
    ``monitor.takeovers`` counts promotions.
    """
    from ...cluster.network import SERVER, STANDBY

    monitor = StandbyMonitor(cluster, takeover_after=takeover_after)

    def poll():
        if not monitor.enabled:
            return
        if cluster.server is not None and cluster.server.up:
            cluster.network.send(monitor.receive_heartbeat,
                                 label="heartbeat",
                                 src=SERVER, dst=STANDBY)
        monitor.check()
        cluster.kernel.schedule(check_interval, poll, label="standby-poll")

    cluster.kernel.schedule(check_interval, poll, label="standby-poll")
    return monitor
