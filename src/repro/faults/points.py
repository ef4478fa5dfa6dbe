"""Crash-point registry: named fault points woven into hot transitions.

The engine, store, and cluster layers call :func:`fire` at the narrow
windows where the paper's dependability claim is actually decided — between
a WAL append and its sync, between recording a dispatch and handing the job
to a node, in the middle of recovery replay. With no injector installed the
call is a cheap no-op; the chaos harness installs a :class:`FaultInjector`
carrying one-shot :class:`~repro.faults.plan.FaultAction` entries that fire
on a specific hit of a specific point.

What a firing action does depends on its kind:

* ``crash`` — raises :class:`InjectedCrash` (process dies in this window);
* ``torn`` — raises :class:`InjectedCrash` with a ``torn_fraction``; the
  WAL writes that fraction of the record before dying (torn write);
* ``error`` — raises :class:`~repro.errors.ActivityFailure` with reason
  ``injected-fault`` (a program-level failure, consumed by the PEC);
* ``drop`` / ``duplicate`` / ``delay`` — returned to the caller as a
  message directive (the PEC report path interprets them).

This module must stay import-light: it is imported by ``store.wal`` and
``core.engine.server``, so it may only depend on ``repro.errors``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from ..errors import ActivityFailure, ReproError

#: kinds that terminate the "process" in the current window.
CRASH_KINDS = ("crash", "torn")
#: kinds interpreted by message-sending call sites.
MESSAGE_KINDS = ("drop", "duplicate", "delay")

#: every fault point the code base exposes, with the action kinds that make
#: sense there. Keep in sync with docs/chaos.md's fault-point table.
CATALOG: Dict[str, tuple] = {
    # store layer
    "wal.append": ("crash", "torn"),
    "kvstore.commit.pre-sync": ("crash",),
    "kvstore.commit.post-sync": ("crash",),
    "store.rotate": ("crash",),
    "store.checkpoint.begin": ("crash",),
    "store.checkpoint.chain-extended": ("crash",),
    "store.checkpoint.rewrite-written": ("crash",),
    "store.checkpoint.manifest-switched": ("crash",),
    # engine layer
    "server.emit.pre-persist": ("crash",),
    "server.emit.post-persist": ("crash",),
    "server.dispatch.record": ("crash",),
    "dispatcher.submit": ("crash",),
    "navigator.navigate": ("crash",),
    "recovery.replay": ("crash",),
    # shard migration windows (rebalance profile). prepare/export/commit
    # crash the SOURCE shard mid-move; import/activate crash the TARGET.
    "shard.migrate.prepare": ("crash",),
    "shard.migrate.export": ("crash",),
    "shard.migrate.import": ("crash",),
    "shard.migrate.commit": ("crash",),
    "shard.migrate.activate": ("crash",),
    # cluster layer
    "network.deliver": MESSAGE_KINDS,
    "pec.report": MESSAGE_KINDS,
    "pec.program": ("error",),
}


class InjectedCrash(ReproError):
    """The injected equivalent of the server process dying right here.

    Not an engine error: it must unwind *through* the engine untouched so
    the chaos driver (the only intended handler) sees exactly where the
    "process" died. ``torn_fraction`` is set for torn-write crashes; the
    WAL uses it to leave a partial record behind.
    """

    def __init__(self, point: str, torn_fraction: Optional[float] = None):
        super().__init__(f"injected crash at fault point {point!r}")
        self.point = point
        self.torn_fraction = torn_fraction


class FaultInjector:
    """Arms a set of one-shot fault actions against the point catalog.

    Every call to :func:`fire` counts one *hit* of its point; an action
    armed with ``at_hit=n`` fires on the n-th hit and is then disarmed.
    ``hits`` and ``fired`` survive for post-mortem accounting.
    """

    def __init__(self, actions=()):
        self._armed: Dict[str, List] = {}
        self.hits: Dict[str, int] = {}
        self.fired: List[Dict] = []
        for action in actions:
            self.arm(action)

    def arm(self, action) -> None:
        """Queue one more one-shot action for its fault point."""
        if action.point not in CATALOG:
            raise ReproError(f"unknown fault point {action.point!r}")
        if action.kind not in CATALOG[action.point]:
            raise ReproError(
                f"fault point {action.point!r} does not support kind "
                f"{action.kind!r}"
            )
        self._armed.setdefault(action.point, []).append(action)

    @property
    def pending(self) -> int:
        """Number of armed actions that have not fired yet."""
        return sum(len(actions) for actions in self._armed.values())

    def fire(self, point: str, **context):
        """Hit ``point``; trigger (and consume) an armed action if due."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        armed = self._armed.get(point)
        if not armed:
            return None
        for index, action in enumerate(armed):
            if action.at_hit == count:
                armed.pop(index)
                self.fired.append({
                    "point": point,
                    "kind": action.kind,
                    "hit": count,
                    "context": dict(context),
                })
                return self._enact(action)
        return None

    def _enact(self, action):
        if action.kind == "crash":
            raise InjectedCrash(action.point)
        if action.kind == "torn":
            raise InjectedCrash(action.point,
                                torn_fraction=action.torn_fraction)
        if action.kind == "error":
            raise ActivityFailure(
                "injected-fault", detail=f"fault point {action.point}"
            )
        return action  # message directive: the call site interprets it


#: the process-wide injector; ``None`` keeps every fire() a no-op.
_ACTIVE: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Deactivate any installed injector (fire() becomes a no-op)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


def fire(point: str, **context):
    """Hit a fault point. No-op (returns None) unless an injector is
    installed and an armed action matches this hit."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(point, **context)


@contextmanager
def installed(injector: FaultInjector):
    """Install an injector for the duration of a with-block."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
