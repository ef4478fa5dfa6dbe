"""Simulated cluster nodes: CPU slots, speed, external load, crashes.

A node executes BioOpera jobs *nice* (at lower priority than other users'
work, as in the paper's shared-cluster run): each job needs one CPU's worth
of attention, and the node's ``external_load`` — CPUs' worth of
higher-priority demand — is served first. With ``k`` BioOpera jobs on a
node of ``cpus`` CPUs and external load ``x``, every job progresses at rate
``speed * min(1, max(0, cpus - x) / k)`` work-seconds per second.

Progress is tracked analytically: on every change (job arrival/completion,
load change, upgrade, crash) the node integrates progress since the last
change and reschedules each job's completion event. This keeps the
discrete-event simulation exact with O(changes) events, no ticking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import NodeDownError
from .simulation import Event, SimKernel


@dataclass
class NodeSpec:
    """Static description of a node (what the configuration space holds)."""

    name: str
    cpus: int
    speed: float = 1.0
    os: str = "linux"
    memory_mb: int = 512
    tags: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cpus": self.cpus,
            "speed": self.speed,
            "os": self.os,
            "memory_mb": self.memory_mb,
            "tags": list(self.tags),
        }


class _RunningJob:
    __slots__ = ("job_id", "work_remaining", "payload", "completion_event",
                 "started_at", "cpu_consumed")

    def __init__(self, job_id: str, work: float, payload: Any, now: float):
        self.job_id = job_id
        self.work_remaining = float(work)
        self.payload = payload
        self.completion_event: Optional[Event] = None
        self.started_at = now
        self.cpu_consumed = 0.0  # node-CPU seconds actually burned


class SimNode:
    """Runtime state of one node in the simulated cluster."""

    def __init__(self, kernel: SimKernel, spec: NodeSpec,
                 on_job_done: Callable[["SimNode", str, Any, float], None]):
        self.kernel = kernel
        self.spec = spec
        self.name = spec.name
        self.cpus = spec.cpus
        self.speed = spec.speed
        self.up = True
        self.external_load = 0.0
        self._jobs: Dict[str, _RunningJob] = {}
        self._last_update = kernel.now
        self._on_job_done = on_job_done
        #: CPU-seconds of partial progress discarded by crashes/kills.
        self.cpu_lost = 0.0

    # ------------------------------------------------------------------
    # Rate mechanics
    # ------------------------------------------------------------------

    def _available(self) -> float:
        if not self.up:
            return 0.0
        return max(0.0, self.cpus - self.external_load)

    def _rate_per_job(self) -> float:
        """Work-seconds per sim-second each running job receives."""
        count = len(self._jobs)
        if count == 0 or not self.up:
            return 0.0
        return self.speed * min(1.0, self._available() / count)

    def _integrate(self) -> None:
        """Apply progress accrued since the last change point."""
        now = self.kernel.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._jobs:
            return
        rate = self._rate_per_job()
        if rate <= 0:
            return
        share = min(1.0, self._available() / len(self._jobs))
        for job in self._jobs.values():
            job.work_remaining -= rate * elapsed
            job.cpu_consumed += share * elapsed

    def _reschedule(self) -> None:
        rate = self._rate_per_job()
        for job in self._jobs.values():
            if job.completion_event is not None:
                job.completion_event.cancel()
                job.completion_event = None
            if rate <= 0:
                continue  # stalled until conditions change
            delay = max(0.0, job.work_remaining) / rate
            job.completion_event = self.kernel.schedule(
                delay, self._complete, job.job_id,
                label=f"{self.name}:{job.job_id}",
            )

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def start_job(self, job_id: str, work: float, payload: Any) -> None:
        if not self.up:
            raise NodeDownError(f"node {self.name} is down")
        self._integrate()
        self._jobs[job_id] = _RunningJob(job_id, work, payload,
                                         self.kernel.now)
        self._reschedule()

    def _complete(self, job_id: str) -> None:
        self._integrate()
        job = self._jobs.pop(job_id, None)
        self._reschedule()
        if job is None:
            return
        self._on_job_done(self, job_id, job.payload, job.cpu_consumed)

    def kill_job(self, job_id: str) -> bool:
        """Abandon a running job (cancellation or preemptive kill)."""
        self._integrate()
        job = self._jobs.pop(job_id, None)
        if job is not None:
            if job.completion_event is not None:
                job.completion_event.cancel()
            self.cpu_lost += job.cpu_consumed
        self._reschedule()
        return job is not None

    def running_jobs(self) -> List[str]:
        return sorted(self._jobs)

    def has_job(self, job_id: str) -> bool:
        return job_id in self._jobs

    # ------------------------------------------------------------------
    # Environment changes
    # ------------------------------------------------------------------

    def set_external_load(self, load: float) -> None:
        self._integrate()
        self.external_load = max(0.0, min(float(load), float(self.cpus)))
        self._reschedule()

    def crash(self) -> List[str]:
        """Take the node down; running jobs are lost. Returns their ids."""
        self._integrate()
        lost = sorted(self._jobs)
        for job in self._jobs.values():
            if job.completion_event is not None:
                job.completion_event.cancel()
            self.cpu_lost += job.cpu_consumed
        self._jobs.clear()
        self.up = False
        return lost

    def restore(self) -> None:
        self.up = True
        self._last_update = self.kernel.now

    def upgrade(self, cpus: Optional[int] = None,
                speed: Optional[float] = None) -> None:
        """Hardware change (paper: one-to-two-processor upgrade mid-run)."""
        self._integrate()
        if cpus is not None:
            self.cpus = cpus
        if speed is not None:
            self.speed = speed
        self._reschedule()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def utilization(self) -> float:
        """CPUs currently doing BioOpera work."""
        if not self.up or not self._jobs:
            return 0.0
        return min(float(len(self._jobs)), self._available())

    def available_cpus(self) -> int:
        return self.cpus if self.up else 0

    def __repr__(self):
        state = "up" if self.up else "DOWN"
        return (
            f"<SimNode {self.name} {state} jobs={len(self._jobs)} "
            f"ext={self.external_load:.1f}/{self.cpus}>"
        )
