"""Differential oracle for the navigator's agenda: the whole-instance scan.

Until PR 17 ``Navigator.navigate`` re-evaluated every inactive and failed
task of every frame, and re-checked every frame for completion, on every
pass. The agenda replaced that scan in ``src/``; this module keeps it as
the reference. :func:`full_scan_acts` makes one pass the old way over an
instance *as it is* and reports whatever that pass would have done, with
the server's emitters swapped for recorders so nothing is changed.
:func:`navigation_oracle` patches ``Navigator.navigate`` to run the pass
after every navigation and fail unless it is a no-op — what the agenda
skipped, the scan would have skipped too.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List
from unittest import mock

from repro.core.engine.instance import (
    EXPANDED, FAILED, INACTIVE, RUNNING, SUSPENDED,
)
from repro.core.engine.navigator import Navigator


def walk_complete(frame) -> bool:
    """``Frame.complete()`` as it was: a walk over every state."""
    return all(state.terminal for state in frame.states.values())


def full_scan_acts(navigator: Navigator, instance) -> List[str]:
    """What one pass of the old scan would do to ``instance`` right now."""
    if instance.terminal or instance.status not in (RUNNING, SUSPENDED):
        return []
    if navigator._compensation_pending(instance):
        return []  # navigate() drives the undo and returns before scanning
    server = navigator.server
    acts: List[str] = []

    def recorder(what):
        def record(*args, **kwargs):
            acts.append(f"{what} {args[1:]} {kwargs.get('task_path', '')}")
        return record

    # Evaluating a task parks it again; the pass must leave the parking
    # state exactly as navigate() left it.
    saved = {
        "agenda": list(instance.agenda),
        "_on_agenda": set(instance._on_agenda),
        "watchers": {k: list(v) for k, v in instance.watchers.items()},
        "drained": list(instance.drained),
    }
    with mock.patch.multiple(
        server, emit=recorder("emit"), emit_batch=recorder("emit_batch"),
        queue_job=recorder("queue_job"),
        finalize_abort=recorder("finalize_abort"),
        clock=lambda: 0.0,  # a StepClock advances when read
    ):
        try:
            navigator._finalize_compensation(instance)
            for frame in list(instance.frames.values()):
                for state in list(frame.states.values()):
                    if state.status == INACTIVE:
                        navigator._consider_start(instance, frame, state)
                    elif state.status == FAILED:
                        navigator._handle_failure(instance, frame, state)
            for frame in sorted(instance.frames.values(),
                                key=lambda f: -len(f.path)):
                if frame.kind == "root" or not walk_complete(frame):
                    continue
                owner = instance.find_state(frame.owner_path)
                if owner is not None and owner.status == EXPANDED:
                    acts.append(f"complete {frame.owner_path}")
            if walk_complete(instance.frames[""]):
                acts.append("complete instance")
        finally:
            for name, value in saved.items():
                setattr(instance, name, value)
    return acts


@contextmanager
def navigation_oracle():
    """Check every ``navigate`` against the scan; yields the call counter."""
    navigate = Navigator.navigate
    checked = {"navigations": 0}

    def navigate_then_scan(self, instance):
        navigate(self, instance)
        checked["navigations"] += 1
        acts = full_scan_acts(self, instance)
        assert not acts, (
            f"{instance.id}: navigate() stopped short of the scan's "
            f"fixpoint; one more full pass would still: {acts}"
        )

    with mock.patch.object(Navigator, "navigate", navigate_then_scan):
        yield checked
