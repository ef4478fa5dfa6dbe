"""Multi-tenant sharded control plane.

The paper's virtual-laboratory server is a single process that owns
every process instance — the hard ceiling on "heavy traffic from
millions of users". This package removes the ceiling the way the
Operandi server/broker/queue split and the grid-workflow architectures
do: decouple request intake from execution, and partition instance
ownership across independent server shards.

Three layers:

* :mod:`~repro.shard.router` — the pure `instance_id -> shard` mapping
  (prefix-first, hash fallback), shared by every other layer;
* :mod:`~repro.shard.broker` — per-tenant FIFO intake queues drained
  round-robin into one-in-flight-per-shard dispatch over the network
  fabric, with epoch-checked acks and idempotent redelivery;
* :mod:`~repro.shard.plane` — the assembled control plane: N
  :class:`~repro.core.engine.server.BioOperaServer` shards, each with
  its *own* store/WAL/observability hub and node pool, so one shard
  fails over (PR 4 epoch fencing + PR 5 bounded recovery, per shard)
  without deposing the others.

:mod:`~repro.shard.console` merges per-shard operator consoles into a
single cross-shard view, and :mod:`~repro.shard.migrate` moves live
instances between shards (journaled five-phase protocol with durable
forwarding), which is what makes drain/shrink (:meth:`drain_shard`) and
grow first-class topology operations.
"""

from .broker import (
    BROKER,
    Forwarded,
    Rejected,
    Request,
    ShardBroker,
    shard_endpoint,
)
from .console import ShardedConsole
from .migrate import ShardMigrator, migration_invariants
from .plane import Shard, ShardedControlPlane
from .router import ShardRouter

__all__ = [
    "BROKER",
    "Forwarded",
    "Rejected",
    "Request",
    "Shard",
    "ShardBroker",
    "ShardMigrator",
    "ShardRouter",
    "ShardedConsole",
    "ShardedControlPlane",
    "migration_invariants",
    "shard_endpoint",
]
