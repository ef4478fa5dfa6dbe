"""Program Execution Client: BioOpera's per-node agent.

"The PEC is a small software component present at each node responsible for
running application programs on behalf of the BioOpera server... This
client also performs additional activities like monitoring the load at the
node and reporting failures to the BioOpera server" (paper, Section 3.2).

In the simulation the PEC:

* accepts dispatched jobs, runs their program (producing outputs and a CPU
  cost), and occupies the node for the corresponding simulated duration;
* reports completion/failure back through the network (reports sent during
  an outage are lost — the paper's "TEUs failed to report" case);
* watches the node's external load through an
  :class:`~repro.core.monitor.adaptive.AdaptiveMonitor` and notifies the
  server only of significant changes.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Optional

from ..core.engine.dispatcher import JobRequest
from ..core.engine.library import ProgramContext
from ..core.monitor.adaptive import AdaptiveMonitor
from ..errors import ActivityFailure
from ..faults.points import fire
from .network import Network, SERVER
from .node import SimNode


class PEC:
    """One Program Execution Client, co-located with its node."""

    #: report retransmission schedule: a report that cannot be sent (network
    #: outage) is retried with capped exponential backoff plus seeded
    #: jitter, then dropped — short glitches recover quickly, long outages
    #: lose results (the paper's "TEUs failed to report" case) without the
    #: whole cluster retrying in lock-step. Retry ``k`` (0-based) waits
    #: ``min(RETRY_CAP, RETRY_BASE * 2**k) * (1 + U(0, RETRY_JITTER))``.
    REPORT_RETRIES = 3
    RETRY_BASE = 60.0
    RETRY_CAP = 960.0
    RETRY_JITTER = 0.25

    def __init__(self, node: SimNode, network: Network, cluster):
        self.node = node
        self.network = network
        self.cluster = cluster  # SimulatedCluster (owner)
        self.monitor = AdaptiveMonitor()
        self.jobs_run = 0
        self.jobs_failed = 0
        self.reports_lost = 0
        #: job ids whose report is waiting for a retransmission slot; the
        #: server must not treat these as lost when the node reconnects.
        self.pending_reports: set = set()
        #: highest server epoch seen on any dispatch; lower-epoch dispatches
        #: come from a deposed server and are rejected (fencing).
        self.highest_epoch_seen = 0
        self.stale_dispatches_rejected = 0
        self.duplicate_dispatches_ignored = 0

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter included."""
        base = min(self.RETRY_CAP, self.RETRY_BASE * (2.0 ** attempt))
        jitter = self.cluster.rng("pec-retry").random()
        return base * (1.0 + self.RETRY_JITTER * jitter)

    def max_retry_span(self) -> float:
        """Worst-case seconds between first send attempt and giving up."""
        return sum(
            min(self.RETRY_CAP, self.RETRY_BASE * (2.0 ** k))
            * (1.0 + self.RETRY_JITTER)
            for k in range(self.REPORT_RETRIES)
        )

    def _send_report(self, fn, *args, label: str = "",
                     retries_left: Optional[int] = None,
                     job_id: str = "") -> None:
        if retries_left is None:
            retries_left = self.REPORT_RETRIES
        directive = fire("pec.report", label=label)
        if directive is not None:
            if directive.kind == "delay":
                # The report dawdles in a queue somewhere; same retry
                # budget once it actually moves.
                if job_id:
                    self.pending_reports.add(job_id)

                def later():
                    self._send_report(fn, *args, label=label,
                                      retries_left=retries_left,
                                      job_id=job_id)

                self.cluster.kernel.schedule(
                    directive.delay, later, label=f"delayed:{label}"
                )
                return
            if directive.kind == "duplicate":
                # An extra copy arrives too; the server's staleness checks
                # must shrug the duplicate off.
                self.network.send(fn, *args, label=f"{label}#dup",
                                  src=self.node.name, dst=SERVER)
            elif directive.kind == "drop":
                self._report_undelivered(fn, args, label, retries_left,
                                         job_id)
                return

        def undelivered():
            self._report_undelivered(fn, args, label, retries_left, job_id)

        # Every failure to reach the server — a send-time cut (False
        # return), a mid-flight kill, sampled loss — feeds the same
        # retransmission/backoff path through ``on_dropped``.
        sent = self.network.send(fn, *args, label=label,
                                 src=self.node.name, dst=SERVER,
                                 on_dropped=undelivered)
        if sent:
            self.pending_reports.discard(job_id)
        else:
            undelivered()

    def _report_undelivered(self, fn, args, label: str, retries_left: int,
                            job_id: str) -> None:
        """A report did not reach the server; retry on the backoff
        schedule or account it lost."""
        if retries_left <= 0 or not self.node.up:
            self.reports_lost += 1
            self.pending_reports.discard(job_id)
            self.cluster.server.obs.metrics.inc("pec_reports_lost")
            return
        if job_id:
            self.pending_reports.add(job_id)

        def retry():
            self._send_report(fn, *args, label=label,
                              retries_left=retries_left - 1, job_id=job_id)

        attempt = self.REPORT_RETRIES - retries_left
        self.cluster.kernel.schedule(
            self.retry_delay(attempt), retry, label=f"retry:{label}"
        )

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------

    def receive_job(self, job: JobRequest) -> None:
        """A dispatch message arrived from the server."""
        if not self.node.up:
            # The dispatch raced a crash; the failure detector will tell
            # the server this node is gone.
            return
        server = self.cluster.server
        metrics = server.obs.metrics
        metrics.inc("pec_jobs_received")
        if job.epoch and job.epoch < self.highest_epoch_seen:
            # Fencing: a dispatch issued by a deposed server (stale epoch)
            # must not run — the new server owns this task occurrence.
            self.stale_dispatches_rejected += 1
            metrics.inc("pec_stale_dispatches_rejected")
            return
        if job.epoch:
            self.highest_epoch_seen = max(self.highest_epoch_seen, job.epoch)
        if self.node.has_job(job.job_id) or job.job_id in self.pending_reports:
            # A duplicated delivery of a dispatch already running here (or
            # already finished and waiting to report) must not double-run.
            self.duplicate_dispatches_ignored += 1
            metrics.inc("pec_duplicate_dispatches")
            return
        ctx = ProgramContext(
            instance_id=job.instance_id,
            task_path=job.task_path,
            attempt=job.attempt,
            node=self.node.name,
            seed=server.seed,
        )
        try:
            fire("pec.program", job=job.job_id, node=self.node.name)
            result = server.registry.run(job.program, job.inputs, ctx)
        except ActivityFailure as failure:
            self._report_failure(job, failure.reason, failure.detail)
            return
        except Exception:  # program bug
            self._report_failure(
                job, "program-error", traceback.format_exc(limit=3)
            )
            return
        # Occupy the node for the work the program costed out (perturbed by
        # mean-1 lognormal noise — real executions never hit the estimate
        # exactly). The payload carries everything needed to report on
        # completion.
        work = max(1e-6, result.cost) * self.cluster.execution_noise_factor()
        self.node.start_job(
            job.job_id,
            work=work,
            payload={"job": job, "outputs": result.outputs},
        )
        self.jobs_run += 1

    def job_finished(self, job_id: str, payload: Dict[str, Any],
                     cpu_consumed: float) -> None:
        """Node callback: the simulated work is done; report upstream."""
        job: JobRequest = payload["job"]
        # Stamp the node-local finish time before the report travels (the
        # span's report_delay is exactly the gap this stamp opens).
        self.cluster.note_job_finished(job_id)
        if (self.cluster.job_failure_rate > 0.0
                and self.cluster.rng("io-errors").random()
                < self.cluster.job_failure_rate):
            self._report_failure(job, "io-error", "file system instability")
            return
        if self.cluster.storage_full:
            # Results cannot be written to shared storage (Figure 5 ev. 5).
            self._report_failure(job, "disk-full",
                                 "shared storage out of space")
            return
        self._send_report(
            self.cluster.deliver_completion, job, payload["outputs"],
            cpu_consumed, self.node.name,
            label=f"done:{job_id}", job_id=job_id,
        )

    def _report_failure(self, job: JobRequest, reason: str,
                        detail: str) -> None:
        self.jobs_failed += 1
        self._send_report(
            self.cluster.deliver_failure, job, reason, self.node.name,
            detail, label=f"fail:{job.job_id}", job_id=job.job_id,
        )

    # ------------------------------------------------------------------
    # Load monitoring
    # ------------------------------------------------------------------

    def load_changed(self) -> None:
        """Called when the node's external load changes; reports upstream
        only if the adaptive monitor finds the change significant."""
        capacity = max(1, self.node.cpus)
        _interval, report = self.monitor.observe(
            self.node.external_load / capacity
        )
        if report is not None:
            self._send_load_report(report * capacity)

    def _send_load_report(self, load: float, retries_left: int = 2) -> None:
        """Send a load report; a dropped send retries once or twice with
        the node's *current* load (stale samples are worthless)."""
        def undelivered():
            if retries_left > 0 and self.node.up:
                self.cluster.kernel.schedule(
                    self.retry_delay(0),
                    lambda: self._send_load_report(
                        self.node.external_load, retries_left - 1),
                    label=f"retry-load:{self.node.name}",
                )

        sent = self.network.send(
            self.cluster.deliver_load_report, self.node.name, load,
            label=f"load:{self.node.name}",
            src=self.node.name, dst=SERVER, on_dropped=undelivered,
        )
        if not sent:
            undelivered()
