"""Provenance: the lineage of the event logs promoted to a queryable graph.

Every task completion the server records carries its derivation in its
``task_completed`` event (one :class:`~repro.prov.graph.LineageRecord`
each); this package turns that durable record into the operator-facing
surface the paper promises — "all dependencies are persistently
recorded":

* :mod:`repro.prov.graph` — :class:`LineageRecord` (one derivation)
  and :class:`ProvenanceGraph`, the one lineage class: ancestry,
  descendants, derivation paths, run diffs, and W3C PROV-JSON
  import/export (plus cross-shard document merging);
* :mod:`repro.prov.view` — :class:`ProvenanceView`: the graph as one
  view of the observability catalog, folded incrementally off the event
  logs, never stored, equal to a from-scratch rescan
  (:func:`lineage_records`);
* :mod:`repro.prov.rerun` — smart re-execution: compute the minimal
  invalidated subgraph for changed inputs or forced task reruns, replay
  everything else from the content-keyed memo cache.

See ``docs/provenance.md`` for the operator runbook.
"""

from .graph import (
    PROV_PREFIX,
    PROV_URI,
    LineageRecord,
    ProvenanceGraph,
    merge_prov_documents,
    relative_dataset,
)
from .rerun import (
    RerunHandle,
    RerunPlan,
    execute_rerun,
    plan_rerun,
    rerun_report,
    require_instance,
)
from .view import (
    ProvenanceView,
    lineage_records,
    live_graph,
    provenance_graph,
)

__all__ = [
    "PROV_PREFIX",
    "PROV_URI",
    "LineageRecord",
    "ProvenanceGraph",
    "merge_prov_documents",
    "relative_dataset",
    "RerunHandle",
    "RerunPlan",
    "execute_rerun",
    "plan_rerun",
    "rerun_report",
    "require_instance",
    "ProvenanceView",
    "lineage_records",
    "live_graph",
    "provenance_graph",
]
