"""Differential oracle for the kept instance listing: the rebuild.

A listing used to walk every instance of every shard and build each row
afresh. ``InstanceMap.listing`` now keeps the rows and rebuilds only
those of the ids in its ``changed`` set, and the plane keeps the merge
of its shards' listings; this module keeps the whole rebuild as the
reference. :func:`listing_oracle` patches ``BioOperaServer._emit`` to
compare the two after every committed slice, so any run wrapped in it
checks the listing at every step.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List
from unittest import mock

from repro.core.engine.server import BioOperaServer


def rebuild_listing(server) -> List[Dict[str, Any]]:
    """``OperatorConsole.list_instances`` as it was: a row per instance,
    built afresh (a deferred instance is replayed by the read). A shard
    server's row carries the ``"shard"`` tag the plane's console added."""
    rows = []
    for instance_id in sorted(server.instances):
        instance = server.instances[instance_id]
        row = {
            "instance_id": instance_id,
            "template": instance.template.name if instance.template else "",
            "status": instance.status,
            "progress": instance.progress(),
        }
        if server.shard_index is not None:
            row["shard"] = server.shard_index
        rows.append(row)
    return rows


def rebuild_plane_listing(plane) -> List[Dict[str, Any]]:
    """``ShardedConsole.list_instances`` as it was: every live shard's
    rows rebuilt, then sorted by id."""
    rows: List[Dict[str, Any]] = []
    for shard in plane.shards:
        if not shard.retired:
            rows.extend(rebuild_listing(shard.server))
    return sorted(rows, key=lambda r: r["instance_id"])


def ordered(rows) -> List[list]:
    """The rows as key/value pairs, so a comparison sees key order too."""
    return [list(row.items()) for row in rows]


@contextmanager
def listing_oracle():
    """Check each server's kept listing against the rebuild after every
    committed slice (an emit nested in another's apply is checked with
    the outer one); yields the counter of slices checked and the event
    types seen."""
    emit = BioOperaServer._emit
    checked = {"slices": 0, "types": set()}
    depth = [0]

    def emit_then_rebuild(server, instance, events, create=None):
        depth[0] += 1
        try:
            emit(server, instance, events, create)
        finally:
            depth[0] -= 1
        checked["types"].update(event["type"] for event in events)
        if depth[0] or not events:
            return
        checked["slices"] += 1
        rebuilt = ordered(rebuild_listing(server))
        assert ordered(server.instances.listing()) == rebuilt, (
            f"{instance.id}: kept listing diverges from the rebuild after "
            f"{[event['type'] for event in events]}")

    with mock.patch.object(BioOperaServer, "_emit", emit_then_rebuild):
        yield checked
