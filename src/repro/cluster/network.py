"""LAN model: a per-link fault fabric with latency, partitions, and loss.

The paper's clusters hang off "an ordinary Ethernet 10 Mbit network" that
failed outright more than once (Figure 5 event 3, Figure 6's two planned
outages). Messages here are kernel callbacks delivered after a sampled
latency between two named **endpoints** — the server (:data:`SERVER`), the
standby monitor (:data:`STANDBY`), and each node by name.

Failure modes the fabric can inject, per directed link:

* **partitions** — directed cuts between arbitrary endpoint sets
  (:meth:`Network.partition`); a symmetric cut models a switch failure, an
  asymmetric one the half-open links real Ethernet produces;
* **asymmetric loss** — per-link drop probability (:meth:`Network.set_loss`);
* **duplication** — a message occasionally arrives twice
  (:meth:`Network.set_duplication`);
* **reordering** — a message occasionally dawdles long enough to arrive
  after its successors (:meth:`Network.set_reordering`);
* **outages** — the legacy whole-fabric cut (:meth:`Network.start_outage`).

Link state is re-checked **at delivery time**, so a cut that starts while
a message is in flight kills it (``inflight_killed``) instead of letting
it tunnel through the partition. A send that is dropped — at send time or
in flight — invokes its ``on_dropped`` callback so callers can feed the
retransmission path; a ``False`` return only covers send-time drops.

Every randomized feature draws from its own seeded kernel stream and is
short-circuited when disabled, so enabling none of them leaves existing
seeded runs bit-identical.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..faults.points import fire
from .simulation import SimKernel

#: endpoint name of the BioOpera server.
SERVER = "server"
#: endpoint name of the hot-standby monitor.
STANDBY = "standby"
#: wildcard endpoint matching any source or destination.
ANY = "*"


class Network:
    """Best-effort message fabric on the simulation kernel."""

    def __init__(self, kernel: SimKernel, base_latency: float = 0.05,
                 jitter: float = 0.02, rng_namespace: str = ""):
        self.kernel = kernel
        self.base_latency = base_latency
        self.jitter = jitter
        self.outage = False
        #: prefix for this fabric's kernel RNG streams. Two fabrics on
        #: one kernel (a sharded control plane) must not share streams:
        #: one shard's traffic would perturb another shard's latency
        #: draws, and a crashed shard could change a healthy shard's
        #: event times. The default "" keeps single-fabric runs
        #: bit-identical to their pre-namespace seeds.
        self.rng_namespace = rng_namespace
        self._rng = kernel.rng(rng_namespace + "network")
        #: partition id -> list of (src set, dst set) directed cut rules.
        self._partitions: Dict[int, List[Tuple[FrozenSet[str],
                                               FrozenSet[str]]]] = {}
        self._partition_ids = itertools.count(1)
        #: (src, dst) -> drop probability; endpoints may be :data:`ANY`.
        self._loss: Dict[Tuple[str, str], float] = {}
        self.duplicate_rate = 0.0
        self.reorder_rate = 0.0
        #: extra in-flight seconds a reordered message dawdles (uniform).
        self.reorder_extra = 1.0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        #: messages that were in flight when their link was cut.
        self.inflight_killed = 0

    # ------------------------------------------------------------------
    # Link state
    # ------------------------------------------------------------------

    def partition(self, sources, destinations, symmetric: bool = True) -> int:
        """Cut every (src, dst) link in ``sources × destinations``.

        Returns a partition id for :meth:`heal`. ``symmetric=True`` also
        cuts the reverse direction; endpoint sets may contain :data:`ANY`.
        """
        srcs, dsts = frozenset(sources), frozenset(destinations)
        rules = [(srcs, dsts)]
        if symmetric:
            rules.append((dsts, srcs))
        pid = next(self._partition_ids)
        self._partitions[pid] = rules
        return pid

    def heal(self, partition_id: int) -> None:
        self._partitions.pop(partition_id, None)

    def is_cut(self, src: str, dst: str) -> bool:
        """Is the directed link ``src -> dst`` unusable right now?"""
        if self.outage:
            return True
        for rules in self._partitions.values():
            for srcs, dsts in rules:
                if ((ANY in srcs or src in srcs)
                        and (ANY in dsts or dst in dsts)):
                    return True
        return False

    def set_loss(self, src: str, dst: str, probability: float) -> None:
        """Set the directed link's drop probability (0 removes the rule)."""
        if probability > 0.0:
            self._loss[(src, dst)] = min(1.0, probability)
        else:
            self._loss.pop((src, dst), None)

    def loss_probability(self, src: str, dst: str) -> float:
        if not self._loss:
            return 0.0
        return max(
            self._loss.get(pair, 0.0)
            for pair in ((src, dst), (ANY, dst), (src, ANY), (ANY, ANY))
        )

    def set_duplication(self, rate: float) -> None:
        self.duplicate_rate = max(0.0, min(1.0, rate))

    def set_reordering(self, rate: float,
                       extra: Optional[float] = None) -> None:
        self.reorder_rate = max(0.0, min(1.0, rate))
        if extra is not None:
            self.reorder_extra = max(0.0, extra)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def latency(self) -> float:
        return self.base_latency + self._rng.random() * self.jitter

    def send(self, fn: Callable, *args: Any, label: str = "",
             src: str = SERVER, dst: str = SERVER,
             on_dropped: Optional[Callable[[], None]] = None) -> bool:
        """Deliver ``fn(*args)`` after network latency on ``src -> dst``.

        Returns False (and drops the message) when the link is unusable at
        send time. A message the fabric loses *after* the send — a cut
        that starts mid-flight, sampled loss, an injected drop — still
        returns True; ``on_dropped`` is the only signal for those, so
        callers needing reliability must pass it.
        """
        self.messages_sent += 1
        directive = fire("network.deliver", label=label, src=src, dst=dst)
        if self.is_cut(src, dst):
            self.messages_dropped += 1
            return False
        if self._loss and (
                self.kernel.rng(self.rng_namespace + "network-loss").random()
                < self.loss_probability(src, dst)):
            self.messages_dropped += 1
            return False
        delay = self.latency()
        if directive is not None and directive.kind == "delay":
            delay += directive.delay
        if directive is not None and directive.kind == "duplicate" or (
                self.duplicate_rate > 0.0
                and self.kernel.rng(self.rng_namespace + "network-dup")
                .random() < self.duplicate_rate):
            self.messages_duplicated += 1
            self.kernel.schedule(
                self.latency(), self._deliver, fn, args, src, dst,
                on_dropped, False, label=f"{label or 'msg'}#dup",
            )
        reorder_rng = self.kernel.rng(self.rng_namespace + "network-reorder")
        if (self.reorder_rate > 0.0
                and reorder_rng.random() < self.reorder_rate):
            self.messages_reordered += 1
            delay += reorder_rng.random() * self.reorder_extra
        forced_drop = directive is not None and directive.kind == "drop"
        self.kernel.schedule(
            delay, self._deliver, fn, args, src, dst, on_dropped,
            forced_drop, label=label or getattr(fn, "__name__", "msg"),
        )
        return True

    def _deliver(self, fn: Callable, args: tuple, src: str, dst: str,
                 on_dropped: Optional[Callable[[], None]],
                 forced_drop: bool) -> None:
        # Link state is re-checked at delivery time: a message in flight
        # when the cut starts dies inside the fabric.
        if forced_drop or self.is_cut(src, dst):
            self.messages_dropped += 1
            self.inflight_killed += 1
            if on_dropped is not None:
                on_dropped()
            return
        fn(*args)

    # ------------------------------------------------------------------
    # Whole-fabric outage (legacy scenario API)
    # ------------------------------------------------------------------

    def start_outage(self) -> None:
        self.outage = True

    def end_outage(self) -> None:
        self.outage = False

    def health(self) -> Dict[str, int]:
        """Counter snapshot for the operator console."""
        return {
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_reordered": self.messages_reordered,
            "inflight_killed": self.inflight_killed,
            "partitions_active": len(self._partitions),
        }
