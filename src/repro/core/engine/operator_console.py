"""Operator console: the monitoring & control surface of Section 3.4.

"The monitor allows users to actively influence the computation as the
user can start, stop, abort, re-start, and change input parameters during
each step of the computation." The console wraps a server with the
operations a human operator (or an admin script) performs, plus the
query side: per-instance progress, per-task drill-down, cluster state,
and the accounting statistics of Section 5.2.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .instance import COMPLETED, FAILED
from .server import BioOperaServer


class OperatorConsole:
    """Human-operator view over a running BioOpera server."""

    def __init__(self, server: BioOperaServer):
        self.server = server

    # ------------------------------------------------------------------
    # Control (each counts as a manual intervention in the metrics)
    # ------------------------------------------------------------------

    def start(self, template_name: str,
              inputs: Optional[Dict[str, Any]] = None) -> str:
        return self.server.launch(template_name, inputs)

    def stop(self, instance_id: str, reason: str = "operator stop") -> None:
        """Suspend: running activities drain, nothing new starts."""
        self.server.suspend(instance_id, reason)

    def resume(self, instance_id: str) -> None:
        self.server.resume(instance_id)

    def abort(self, instance_id: str, reason: str = "operator abort") -> None:
        self.server.abort(instance_id, reason)

    def restart_task(self, instance_id: str, task_path: str) -> None:
        """Re-run one task (e.g. a TEU whose output looks wrong)."""
        self.server.restart_task(instance_id, task_path)

    def change_parameter(self, instance_id: str, name: str,
                         value: Any) -> None:
        """Edit a whiteboard item of a live instance."""
        self.server.change_parameter(instance_id, name, value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def list_instances(self) -> List[Dict[str, Any]]:
        """One row per instance, ended ones included: the first listing
        after a failover replays the instances the recovery deferred.

        Served from the rows the server's instance map keeps
        (:meth:`~repro.core.engine.recovery.InstanceMap.listing`): the
        list is the caller's to edit, but treat the rows in it as
        read-only — they are shared with every other listing."""
        return list(self.server.instances.listing())

    def instance_detail(self, instance_id: str) -> Dict[str, Any]:
        instance = self.server.instance(instance_id)
        detail = dict(self.server.statistics(instance_id))
        detail["whiteboard"] = instance.whiteboards[""].as_dict()
        detail["outputs"] = instance.outputs
        return detail

    def running_tasks(self, instance_id: str) -> List[Dict[str, Any]]:
        instance = self.server.instance(instance_id)
        rows = []
        for state in instance.dispatched_states():
            rows.append({
                "path": state.path,
                "node": state.node,
                "program": state.program,
                "attempt": state.attempts,
                "since": state.dispatched_at,
            })
        return sorted(rows, key=lambda r: r["path"])

    def failed_tasks(self, instance_id: str) -> List[Dict[str, Any]]:
        instance = self.server.instance(instance_id)
        rows = []
        for state in instance.iter_states():
            if state.status == FAILED:
                rows.append({
                    "path": state.path,
                    "reason": state.failure_reason,
                    "attempts": state.attempts,
                    "node": state.node,
                })
        return sorted(rows, key=lambda r: r["path"])

    def intermediate_results(self, instance_id: str,
                             prefix: str = "") -> Dict[str, Any]:
        """Outputs of completed tasks, available while the process runs —
        "access to intermediate results as they are computed"."""
        instance = self.server.instance(instance_id)
        results: Dict[str, Any] = {}
        for state in instance.iter_states():
            if state.status == COMPLETED and state.outputs is not None:
                if prefix and not state.path.startswith(prefix):
                    continue
                results[state.path] = state.outputs
        return results

    def cluster_state(self) -> List[Dict[str, Any]]:
        rows = []
        for view in self.server.awareness.nodes():
            rows.append({
                "node": view.name,
                "up": view.up,
                "cpus": view.cpus,
                "speed": view.speed,
                "external_load": view.external_load,
                "our_jobs": view.assigned_count,
                "tags": list(view.tags),
            })
        return rows

    def queue_depth(self) -> int:
        return self.server.dispatcher.queue_length()

    def network_health(self) -> Dict[str, Any]:
        """How lossy has the fabric been, and how often did fencing bite?

        Combines the network's send/drop/duplicate/reorder counters (when
        the server runs on a simulated cluster) with the server's own
        epoch-fencing and lease accounting, so an operator can tell a
        lossy network from a misbehaving engine at a glance.
        """
        network = getattr(self.server.environment, "network", None)
        health: Dict[str, Any] = (
            dict(network.health()) if network is not None else {}
        )
        for key in ("stale_epoch_reports", "epoch_fenced", "leases_granted",
                    "leases_renewed", "leases_expired"):
            health[key] = self.server.metrics.get(key, 0)
        health["epoch"] = self.server.epoch
        return health

    # ------------------------------------------------------------------
    # Observability (metrics snapshot, task-span traces)
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Live counters/gauges/histograms of the server's one registry."""
        return self.server.obs.metrics.snapshot()

    def trace_summary(self, instance_id: Optional[str] = None
                      ) -> Dict[str, Any]:
        """Aggregate span timings (queue wait, run time, report delay)."""
        return self.server.obs.tracing.summary(instance_id)

    def export_trace(self, path: str,
                     instance_id: Optional[str] = None) -> str:
        """Write the collected task spans as Chrome-trace JSON (load it in
        ``chrome://tracing`` or Perfetto); returns the path written."""
        return self.server.obs.tracing.export_chrome_trace(path, instance_id)

    # ------------------------------------------------------------------
    # Provenance (lineage graph queries; see docs/provenance.md)
    # ------------------------------------------------------------------

    def _provenance(self, instance_id: str):
        """The store's provenance graph, with the instance's existence
        checked first — unknown ids get a typed error, migrated ids a
        :class:`~repro.errors.MigratedInstanceError` naming the target,
        never a silently empty result."""
        from ...prov import provenance_graph, require_instance
        require_instance(self.server.store, instance_id)
        return provenance_graph(self.server.store)

    def _dataset(self, instance_id: str, name: str) -> str:
        """Qualify a dataset name with the instance prefix if needed."""
        if name.startswith(f"{instance_id}/"):
            return name
        return f"{instance_id}/{name}"

    def provenance_ancestry(self, instance_id: str,
                            dataset: str) -> List[Dict[str, Any]]:
        """Derivation steps behind ``dataset``, furthest ancestor first.

        ``dataset`` is a task output (``<task path>``) or whiteboard item
        (``wb:<name>``), with or without the ``<instance>/`` prefix."""
        graph = self._provenance(instance_id)
        return graph.ancestry(self._dataset(instance_id, dataset))

    def provenance_descendants(self, instance_id: str,
                               dataset: str) -> List[str]:
        """Every dataset transitively derived from ``dataset``."""
        graph = self._provenance(instance_id)
        return graph.descendants(self._dataset(instance_id, dataset))

    def derivation_path(self, instance_id: str, source: str,
                        target: str) -> List[Dict[str, Any]]:
        """The chain of derivation steps from ``source`` to ``target``."""
        graph = self._provenance(instance_id)
        return graph.derivation_path(self._dataset(instance_id, source),
                                     self._dataset(instance_id, target))

    def provenance_run(self, instance_id: str) -> List[Dict[str, Any]]:
        """Every derivation step this instance recorded, in order."""
        graph = self._provenance(instance_id)
        return graph.run_steps(instance_id)

    def provenance_diff(self, run_a: str, run_b: str) -> Dict[str, Any]:
        """Structural diff between two runs (tasks only in one, tasks
        whose program or relative inputs changed, unchanged tasks)."""
        graph = self._provenance(run_a)
        self._provenance(run_b)
        return graph.diff_runs(run_a, run_b)

    def export_prov(self, instance_id: Optional[str] = None
                    ) -> Dict[str, Any]:
        """W3C PROV-JSON document for one instance (or the whole store).

        The store-wide document is served from the one the provenance
        graph keeps until it folds its next derivation. Edit the returned
        document and its sections freely, but treat the attribute dicts
        inside the sections as read-only: they are shared with every
        other export of the same graph state."""
        from ...prov import provenance_graph
        if instance_id is not None:
            return self._provenance(instance_id).to_prov_json(instance_id)
        return provenance_graph(self.server.store).to_prov_json()

    def rerun(self, instance_id: str,
              changed_inputs: Optional[Dict[str, Any]] = None,
              task_ids: Optional[List[str]] = None,
              request_key: Optional[str] = None) -> Dict[str, Any]:
        """Smart re-execution: launch a rerun in which only the subgraph
        invalidated by ``changed_inputs``/``task_ids`` re-executes; the
        rest replays from the memo cache. Counts as an intervention."""
        from ...prov import execute_rerun
        handle = execute_rerun(self.server, instance_id,
                               changed_inputs=changed_inputs,
                               task_ids=task_ids, request_key=request_key)
        self.server.metrics["manual_interventions"] += 1
        return {
            "rerun_id": handle.new_instance_id,
            "plan": handle.plan.to_dict(),
        }

    def rerun_report(self, rerun_id: str) -> Dict[str, Any]:
        """Memo-vs-executed audit of a finished rerun, from its log."""
        from ...prov import rerun_report
        return rerun_report(self.server.store, rerun_id)
