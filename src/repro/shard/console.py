"""Cross-shard operator console: fan out per-shard queries and merge.

Section 3.4's monitor assumes one server owns every instance; on a
sharded plane an operator question like "list my instances" spans N
servers. :class:`ShardedConsole` keeps the
:class:`~repro.core.engine.operator_console.OperatorConsole` query
vocabulary but answers it plane-wide: instance-scoped calls route to
the owning shard — chasing forwarding records when the instance was
migrated, so a stale id keeps working — plane-scoped calls fan out to
every live shard's console and merge the answers (ids are globally
unique by shard prefix, so a merge never reconciles two rows). The
instance listing is not fanned out per call: each shard keeps its rows
and the plane keeps their merge, redone only when a live shard's
listing changed (:meth:`ShardedControlPlane.list_instances`).
Topology operations (:meth:`drain_shard`, :meth:`grow`) pass through to
the plane; ``docs/sharding.md`` is the runbook.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine.operator_console import OperatorConsole
from ..obs.merge import merge_counter_snapshots, merge_trace_summaries
from ..prov import provenance_graph, require_instance
from .broker import shard_endpoint
from .plane import ShardedControlPlane


class ShardedConsole:
    """Operator view over every shard of a control plane."""

    def __init__(self, plane: ShardedControlPlane):
        self.plane = plane

    def _locate(self, instance_id: str) -> Tuple[OperatorConsole, str]:
        """Console of the instance's *current* home plus its final id
        (forwarding records chased for migrated instances)."""
        owner, final_id = self.plane.resolve_instance(instance_id)
        return OperatorConsole(self.plane.shards[owner].server), final_id

    def _consoles(self) -> Dict[str, OperatorConsole]:
        """Each live shard's console, keyed ``shardNN``, in index order."""
        return {shard_endpoint(shard.index): OperatorConsole(shard.server)
                for shard in self.plane.shards if not shard.retired}

    # ------------------------------------------------------------------
    # Control (routed to the owning shard)
    # ------------------------------------------------------------------

    def stop(self, instance_id: str, reason: str = "operator stop") -> None:
        """Suspend one instance, wherever it lives (now)."""
        console, final_id = self._locate(instance_id)
        console.stop(final_id, reason)

    def resume(self, instance_id: str) -> None:
        """Resume a suspended instance, wherever it lives (now)."""
        console, final_id = self._locate(instance_id)
        console.resume(final_id)

    def abort(self, instance_id: str,
              reason: str = "operator abort") -> None:
        """Abort one instance, wherever it lives (now)."""
        console, final_id = self._locate(instance_id)
        console.abort(final_id, reason)

    def restart_task(self, instance_id: str, task_path: str) -> None:
        """Re-run one task of an instance, wherever it lives (now)."""
        console, final_id = self._locate(instance_id)
        console.restart_task(final_id, task_path)

    def change_parameter(self, instance_id: str, name: str,
                         value: Any) -> None:
        """Edit a whiteboard item, wherever the instance lives (now)."""
        console, final_id = self._locate(instance_id)
        console.change_parameter(final_id, name, value)

    # ------------------------------------------------------------------
    # Instance-scoped queries (routed)
    # ------------------------------------------------------------------

    def instance_detail(self, instance_id: str) -> Dict[str, Any]:
        """Statistics + whiteboard + outputs from the owning shard.

        For a migrated instance the detail is the *current* copy's,
        with ``requested_id``/``forwarded_to`` recording the chase so
        the operator sees why the id in the row differs from the one
        they asked about.
        """
        console, final_id = self._locate(instance_id)
        detail = console.instance_detail(final_id)
        detail["shard"] = self.plane.router.shard_of(final_id)
        if final_id != instance_id:
            detail["requested_id"] = instance_id
            detail["forwarded_to"] = final_id
        return detail

    def running_tasks(self, instance_id: str) -> List[Dict[str, Any]]:
        """Dispatched tasks of one instance, from its owning shard."""
        console, final_id = self._locate(instance_id)
        return console.running_tasks(final_id)

    def failed_tasks(self, instance_id: str) -> List[Dict[str, Any]]:
        """Failed tasks of one instance, from its owning shard."""
        console, final_id = self._locate(instance_id)
        return console.failed_tasks(final_id)

    def intermediate_results(self, instance_id: str,
                             prefix: str = "") -> Dict[str, Any]:
        """Completed-task outputs of one instance (owning shard)."""
        console, final_id = self._locate(instance_id)
        return console.intermediate_results(final_id, prefix)

    # ------------------------------------------------------------------
    # Provenance (routed; dataset names re-based onto the current id)
    # ------------------------------------------------------------------

    @staticmethod
    def _rebase(dataset: str, requested: str, final: str) -> str:
        """Swap a fully-qualified dataset's prefix onto the final id.

        The shard a migrated instance moved to qualifies its datasets by
        the new id, so a query phrased against the old id (``old/wb:x``) must chase the
        same forward the instance-scoped routing does."""
        if final != requested and (dataset == requested
                                   or dataset.startswith(requested + "/")):
            return final + dataset[len(requested):]
        return dataset

    def provenance_ancestry(self, instance_id: str,
                            dataset: str) -> List[Dict[str, Any]]:
        """Derivation steps behind one dataset, from the owning shard."""
        console, final_id = self._locate(instance_id)
        return console.provenance_ancestry(
            final_id, self._rebase(dataset, instance_id, final_id))

    def provenance_descendants(self, instance_id: str,
                               dataset: str) -> List[str]:
        """Datasets derived from this one, from the owning shard."""
        console, final_id = self._locate(instance_id)
        return console.provenance_descendants(
            final_id, self._rebase(dataset, instance_id, final_id))

    def derivation_path(self, instance_id: str, source: str,
                        target: str) -> List[Dict[str, Any]]:
        """Derivation chain source → target, from the owning shard."""
        console, final_id = self._locate(instance_id)
        return console.derivation_path(
            final_id,
            self._rebase(source, instance_id, final_id),
            self._rebase(target, instance_id, final_id))

    def provenance_run(self, instance_id: str) -> List[Dict[str, Any]]:
        """One run's derivation steps, from the owning shard."""
        console, final_id = self._locate(instance_id)
        return console.provenance_run(final_id)

    def provenance_diff(self, run_a: str, run_b: str) -> Dict[str, Any]:
        """Diff two runs even when they live on different shards."""
        console_a, id_a = self._locate(run_a)
        console_b, id_b = self._locate(run_b)
        require_instance(console_a.server.store, id_a)
        require_instance(console_b.server.store, id_b)
        graph_a = provenance_graph(console_a.server.store)
        graph_b = provenance_graph(console_b.server.store)
        diff = graph_a.diff_runs(id_a, id_b, other=graph_b)
        if id_a != run_a:
            diff["run_a_requested"] = run_a
        if id_b != run_b:
            diff["run_b_requested"] = run_b
        return diff

    def export_prov(self, instance_id: Optional[str] = None
                    ) -> Dict[str, Any]:
        """PROV-JSON: one instance's document (routed), or every live
        shard's documents merged into one plane-wide export.

        The plane-wide document is served from the merge the plane
        keeps (:meth:`ShardedControlPlane.export_prov`): edit the
        returned document and its sections freely, but treat the
        attribute dicts inside the sections as read-only — they are
        shared with every other export."""
        if instance_id is not None:
            console, final_id = self._locate(instance_id)
            return console.export_prov(final_id)
        return self.plane.export_prov()

    def rerun(self, instance_id: str,
              changed_inputs: Optional[Dict[str, Any]] = None,
              task_ids: Optional[List[str]] = None,
              request_key: Optional[str] = None) -> Dict[str, Any]:
        """Smart rerun on the shard that owns the (possibly migrated)
        original; the new instance lands on that same shard."""
        console, final_id = self._locate(instance_id)
        result = console.rerun(final_id, changed_inputs=changed_inputs,
                               task_ids=task_ids, request_key=request_key)
        result["shard"] = self.plane.router.shard_of(final_id)
        if final_id != instance_id:
            result["requested_id"] = instance_id
        return result

    def rerun_report(self, rerun_id: str) -> Dict[str, Any]:
        """Memo-vs-executed audit of a rerun, from its owning shard."""
        console, final_id = self._locate(rerun_id)
        return console.rerun_report(final_id)

    # ------------------------------------------------------------------
    # Topology operations (pass through to the plane)
    # ------------------------------------------------------------------

    def drain_shard(self, index: int,
                    targets: Optional[Sequence[int]] = None
                    ) -> Dict[str, str]:
        """Migrate every instance off a shard and retire it."""
        return self.plane.drain_shard(index, targets=targets)

    def grow(self, count: int = 1) -> List[int]:
        """Add fresh shards; new launches hash onto them immediately."""
        return self.plane.grow(count)

    # ------------------------------------------------------------------
    # Plane-scoped queries (fan out, merge)
    # ------------------------------------------------------------------

    def list_instances(self) -> List[Dict[str, Any]]:
        """Every live shard's instances, tagged with their shard index
        (replays what a shard's recovery deferred, as the shard's own
        console's listing does).

        Served from the merge the plane keeps
        (:meth:`ShardedControlPlane.list_instances`): the list is the
        caller's to edit, but treat the rows in it as read-only — they
        are shared with every other listing."""
        return self.plane.list_instances()

    def cluster_state(self) -> List[Dict[str, Any]]:
        """Node rows from every live shard's private pool, shard-tagged."""
        rows: List[Dict[str, Any]] = []
        for console in self._consoles().values():
            for row in console.cluster_state():
                row["shard"] = console.server.shard_index
                rows.append(row)
        return sorted(rows, key=lambda r: r["node"])

    def queue_depth(self) -> Dict[str, int]:
        """Broker backlog plus each live shard's dispatcher queue."""
        depths = {name: console.queue_depth()
                  for name, console in self._consoles().items()}
        depths["broker"] = self.plane.broker.pending()
        return depths

    def _broker_queues(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard broker backlog rows, keyed ``shardNN``."""
        return {
            shard_endpoint(index): stats
            for index, stats in
            self.plane.broker.shard_queue_stats().items()
        }

    def network_health(self) -> Dict[str, Any]:
        """Control-fabric counters, per-shard broker backlog (depth and
        oldest-pending age — the drain-target picker), and each live
        shard's fabric/fencing health."""
        return {
            "control": dict(self.plane.control.health()),
            "broker": self.plane.broker.health(),
            "broker_queues": self._broker_queues(),
            "shards": {name: console.network_health()
                       for name, console in self._consoles().items()},
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Plane-wide counters (summed) plus the per-shard snapshots."""
        per_shard = {name: console.metrics_snapshot()
                     for name, console in self._consoles().items()}
        return {
            "total_counters": merge_counter_snapshots(
                snapshot.get("counters", {})
                for snapshot in per_shard.values()
            ),
            "broker": self.plane.broker.health(),
            "broker_queues": self._broker_queues(),
            "shards": per_shard,
        }

    def trace_summary(self, instance_id: Optional[str] = None
                      ) -> Dict[str, Any]:
        """Span summary: one shard's when instance-scoped, else merged."""
        if instance_id is not None:
            console, final_id = self._locate(instance_id)
            return console.trace_summary(final_id)
        return merge_trace_summaries(
            console.trace_summary() for console in self._consoles().values())
