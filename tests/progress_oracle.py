"""Differential oracle for ``ProcessInstance.progress``: the state walk.

Until PR 22 ``progress()`` counted statuses by walking every state of
every frame on each call. ``ProcessInstance`` now keeps the histogram
as statuses are created and changed; this module keeps the walk as the
reference. :func:`progress_oracle` patches ``ProcessInstance.apply`` to
compare the two after every event, so any run (or replay) wrapped in it
checks every prefix of every log it applies.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict
from unittest import mock

from repro.core.engine.instance import ProcessInstance


def walk_progress(instance) -> Dict[str, int]:
    """``ProcessInstance.progress()`` as it was: a walk over every state."""
    histogram: Dict[str, int] = {}
    for state in instance.iter_states():
        histogram[state.status] = histogram.get(state.status, 0) + 1
    return histogram


@contextmanager
def progress_oracle():
    """Check ``progress()`` against the walk after every applied event;
    yields the counter of events checked and the event types seen."""
    apply = ProcessInstance.apply
    checked = {"events": 0, "types": set()}

    def apply_then_walk(instance, event):
        apply(instance, event)
        checked["events"] += 1
        checked["types"].add(event["type"])
        assert instance.progress() == walk_progress(instance), (
            f"{instance.id}: kept histogram diverges from the state walk "
            f"after {event}")

    with mock.patch.object(ProcessInstance, "apply", apply_then_walk):
        yield checked
