"""Dependability campaign engine: parallel, statistical, resumable.

This module turns the single-threaded chaos loop into a managed
experiment platform in the DAVOS mold:

* **parallel execution** — seeded runs are farmed out to a pool of
  ``multiprocessing`` workers, each holding its own workload engine and
  per-configuration fault-free baseline. Runs are pure functions of
  ``(seed, config)``, so the aggregated results are byte-identical
  whatever the pool size.
* **per-run wall-clock timeouts** — a run that exceeds its budget is
  reaped (the worker is terminated and respawned) and recorded as a
  first-class ``hung`` failure instead of stalling the campaign. The
  reaped record still carries the generated fault plan, so a hang is as
  reproducible as any other failure.
* **crash-safe journal** — every completed run is appended to a JSONL
  journal (flush + fsync per line) *in canonical spec order*, so the
  journal is always a prefix of the campaign. An interrupted campaign
  re-opened on the same journal resumes after the prefix instead of
  re-running completed seeds.
* **iterative statistical sampling** — :func:`run_statistical` draws
  seed batches until every engaged fault category's Wilson-interval
  half-width is within the target epsilon (see :mod:`repro.faults.stats`).

Failing (and hung) runs additionally dump their plan JSON — one file per
run — into a ``failing_plans/`` directory for post-campaign triage and
``--rerun`` reproduction.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from . import stats
from .chaos import CampaignConfig

#: journal header magic (version-checked on resume).
JOURNAL_KIND = "chaos-campaign-journal"
JOURNAL_VERSION = 1

#: how long a reaped worker gets to die before we stop waiting (seconds).
_REAP_GRACE = 5.0


@dataclass(frozen=True)
class RunSpec:
    """One unit of campaign work: a seed under a configuration cell.

    ``hang`` is a test hook: the worker parks forever instead of running
    the campaign, which is how the timeout/reaping path is exercised
    without depending on a genuinely wedged workload.
    """

    seed: int
    config: CampaignConfig = CampaignConfig()
    hang: bool = False

    def key(self) -> Dict:
        """The identity a journal record must match to cover this spec."""
        return {"seed": self.seed, "cell": self.config.label()}


class JournalError(Exception):
    """The journal on disk does not belong to this campaign."""


class Journal:
    """Append-only JSONL results journal with a crash-tolerant loader.

    The first line is a header carrying campaign metadata; every other
    line is one run record. Lines are flushed and fsynced as written, and
    the loader ignores a torn final line (a crash mid-append), so a
    journal is always a clean prefix of the campaign's canonical run
    order.
    """

    def __init__(self, path: str, meta: Optional[Dict] = None):
        self.path = path
        self.records: List[Dict] = []
        meta = meta or {}
        if os.path.exists(path):
            self._load(meta)
            self._fh = open(path, "a", encoding="utf-8")
        else:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._write_line({
                "kind": JOURNAL_KIND,
                "version": JOURNAL_VERSION,
                "meta": meta,
            })

    def _load(self, meta: Dict) -> None:
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise JournalError(f"{self.path}: empty journal")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise JournalError(f"{self.path}: unreadable header") from exc
        if header.get("kind") != JOURNAL_KIND:
            raise JournalError(f"{self.path}: not a campaign journal")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: journal version {header.get('version')!r}, "
                f"engine speaks {JOURNAL_VERSION}"
            )
        if header.get("meta") != meta:
            raise JournalError(
                f"{self.path}: journal belongs to a different campaign "
                f"({header.get('meta')!r} != {meta!r}); pass --fresh to "
                f"discard it"
            )
        for line in lines[1:]:
            try:
                self.records.append(json.loads(line))
            except json.JSONDecodeError:
                # Torn final line: the process died mid-append. Every
                # line before it was fsynced whole, so just drop it.
                break

    def _write_line(self, payload: Dict) -> None:
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record: Dict) -> None:
        """Durably append one run record."""
        self._write_line(record)
        self.records.append(record)

    def close(self) -> None:
        """Close the underlying file handle."""
        self._fh.close()


# ----------------------------------------------------------------------
# worker side

def _make_record(spec_dict: Dict, config: CampaignConfig, baseline: Dict,
                 result) -> Dict:
    """Reduce a CampaignResult to the JSON the journal stores."""
    wall = result.wall or 0.0
    record = {
        "seed": spec_dict["seed"],
        "cell": config.label(),
        "config": config.to_dict(),
        "ok": result.ok,
        "status": result.status,
        "categories": result.categories(),
        "crashes": result.crashes,
        "recoveries": result.recoveries,
        "recovery_time": round(result.recovery_time, 6),
        "wall": round(wall, 6),
        "events": result.events,
        "faults_fired": len(result.fired),
        # relative throughput: fault-free wall time over this run's wall
        # time (1.0 = no slowdown). The sweep ranks on its cell mean.
        "rel_throughput": round(baseline["wall"] / wall, 6) if wall else 0.0,
        "violations": list(result.violations),
    }
    if not result.ok:
        record["plan"] = result.plan
    return record


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker loop: pull (index, spec), run the campaign, push the record.

    Each worker builds the workload engine once and caches one fault-free
    baseline per configuration cell; everything else is a pure function
    of the spec, which is what makes pool-size-independent results (and
    byte-identical journals) possible.
    """
    from .chaos import default_darwin, fault_free_baseline, plan_for, \
        run_campaign

    darwin = default_darwin()
    baselines: Dict[str, Dict] = {}
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, spec_dict = item
        config = CampaignConfig.from_dict(spec_dict["config"])
        cache_key = json.dumps(config.to_dict(), sort_keys=True)
        baseline = baselines.get(cache_key)
        if baseline is None:
            baseline = fault_free_baseline(darwin, config=config)
            baselines[cache_key] = baseline
        plan = plan_for(spec_dict["seed"], config, baseline)
        # Announce the run before executing it: if this run hangs and is
        # reaped, the parent still knows its categories and plan, so the
        # hung record is attributable and reproducible.
        result_queue.put(("start", worker_id, index, {
            "categories": plan.categories(),
            "plan": plan.to_dict(),
        }))
        if spec_dict.get("hang"):
            while True:  # test hook: park until the parent reaps us
                time.sleep(60.0)
        result = run_campaign(spec_dict["seed"], darwin, baseline=baseline,
                              plan=plan, config=config)
        result_queue.put((
            "done", worker_id, index,
            _make_record(spec_dict, config, baseline, result),
        ))


# ----------------------------------------------------------------------
# parent side

class _Worker:
    """One pool slot: a process, its private task queue, and its lease."""

    def __init__(self, ctx, worker_id: int, result_queue):
        self.id = worker_id
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_queue, result_queue),
            daemon=True,
        )
        self.process.start()
        self.task: Optional[int] = None       # index of the assigned run
        self.deadline: Optional[float] = None
        self.started: Optional[Dict] = None   # last "start" payload

    def assign(self, index: int, spec_dict: Dict,
               timeout: Optional[float]) -> None:
        """Hand one run to this worker and start its timeout clock."""
        self.task = index
        self.started = None
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        self.task_queue.put((index, spec_dict))

    def finish(self) -> None:
        """Clear the lease after the worker reported a result."""
        self.task = None
        self.deadline = None
        self.started = None

    def stop(self) -> None:
        """Ask the worker to exit (graceful: sentinel, then join)."""
        try:
            self.task_queue.put(None)
        except ValueError:
            pass
        self.process.join(timeout=_REAP_GRACE)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=_REAP_GRACE)

    def kill(self) -> None:
        """Terminate the worker immediately (timeout/hang reaping)."""
        self.process.terminate()
        self.process.join(timeout=_REAP_GRACE)
        if self.process.is_alive() and hasattr(self.process, "kill"):
            self.process.kill()
            self.process.join(timeout=_REAP_GRACE)


class CampaignEngine:
    """Parallel, resumable executor for seeded fault-injection runs.

    Parameters
    ----------
    workers:
        pool size (1 = serial, but still isolated in a worker process so
        per-run timeouts apply either way).
    timeout:
        per-run wall-clock budget in seconds; ``None`` disables reaping.
    journal_path / journal_meta:
        when given, completed runs are durably journaled and a journal
        left by an interrupted campaign with matching meta is resumed.
    failing_dir:
        when given, every failed/hung run's plan is dumped there as one
        JSON file.
    """

    def __init__(self, workers: int = 1, timeout: Optional[float] = 300.0,
                 journal_path: Optional[str] = None,
                 journal_meta: Optional[Dict] = None,
                 failing_dir: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None):
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.failing_dir = failing_dir
        self.log = log or (lambda line: None)
        self.journal = (Journal(journal_path, journal_meta)
                        if journal_path else None)
        self._consumed = 0           # journal records already matched
        self.executed = 0            # fresh runs this session
        self.resumed = 0             # runs satisfied from the journal
        self.hung = 0                # runs reaped by the timeout
        self._ctx = multiprocessing.get_context()
        self._result_queue = self._ctx.Queue()
        self._pool: List[_Worker] = []
        self._next_worker_id = 0

    # -- pool plumbing -------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_worker_id,
                         self._result_queue)
        self._next_worker_id += 1
        return worker

    def _ensure_pool(self) -> None:
        while len(self._pool) < self.workers:
            self._pool.append(self._spawn_worker())

    def close(self) -> None:
        """Shut the pool down and close the journal."""
        for worker in self._pool:
            worker.stop()
        self._pool = []
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- journal resume ------------------------------------------------

    def _resume_prefix(self, specs: List[RunSpec]) -> List[Dict]:
        """Journal records covering a prefix of ``specs``, validated."""
        if self.journal is None:
            return []
        available = self.journal.records[self._consumed:]
        prefix: List[Dict] = []
        for spec, record in zip(specs, available):
            key = spec.key()
            if (record.get("seed"), record.get("cell")) \
                    != (key["seed"], key["cell"]):
                raise JournalError(
                    f"{self.journal.path}: journaled run "
                    f"(seed={record.get('seed')}, cell={record.get('cell')}) "
                    f"does not match campaign spec {key}; pass --fresh to "
                    f"discard the journal"
                )
            prefix.append(record)
        self._consumed += len(prefix)
        self.resumed += len(prefix)
        return prefix

    # -- failure plumbing ----------------------------------------------

    def _dump_failing(self, record: Dict) -> None:
        if self.failing_dir is None or record.get("ok"):
            return
        os.makedirs(self.failing_dir, exist_ok=True)
        cell = "".join(
            ch if ch.isalnum() else "-" for ch in record["cell"]
        ).strip("-")
        path = os.path.join(self.failing_dir,
                            f"seed{record['seed']:04d}__{cell}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "seed": record["seed"],
                "cell": record["cell"],
                "config": record.get("config"),
                "status": record["status"],
                "violations": record.get("violations", []),
                "plan": record.get("plan"),
            }, fh, indent=2, sort_keys=True)

    def _hung_record(self, spec: RunSpec, started: Optional[Dict]) -> Dict:
        started = started or {}
        budget = (f"the {self.timeout:.0f}s wall-clock budget"
                  if self.timeout is not None else "its wall-clock budget")
        return {
            "seed": spec.seed,
            "cell": spec.config.label(),
            "config": spec.config.to_dict(),
            "ok": False,
            "status": "hung",
            "categories": started.get("categories", ["unknown"]),
            "crashes": 0,
            "recoveries": 0,
            "recovery_time": 0.0,
            "wall": 0.0,
            "events": 0,
            "faults_fired": 0,
            "rel_throughput": 0.0,
            "violations": [
                f"run exceeded {budget}; worker terminated and run "
                f"classified as hung"
            ],
            "plan": started.get("plan"),
        }

    # -- execution -----------------------------------------------------

    def run(self, specs: List[RunSpec]) -> List[Dict]:
        """Execute ``specs`` (resuming from the journal), in order.

        Returns one record per spec, in spec order. Fresh records are
        journaled in that same order as soon as every earlier record is
        known, preserving the journal's prefix property.
        """
        records: List[Optional[Dict]] = [None] * len(specs)
        for index, record in enumerate(self._resume_prefix(specs)):
            records[index] = record
        todo = [index for index, record in enumerate(records)
                if record is None]
        if todo:
            self._execute(specs, records, todo)
        assert all(record is not None for record in records)
        return records  # type: ignore[return-value]

    def _execute(self, specs: List[RunSpec], records: List[Optional[Dict]],
                 todo: List[int]) -> None:
        self._ensure_pool()
        pending = list(todo)          # canonical order
        next_journal = todo[0]        # first un-journaled position
        done = 0

        def _spec_dict(index: int) -> Dict:
            spec = specs[index]
            return {"seed": spec.seed, "config": spec.config.to_dict(),
                    "hang": spec.hang}

        def _flush_journal() -> None:
            nonlocal next_journal
            if self.journal is None:
                return
            while (next_journal < len(records)
                   and records[next_journal] is not None):
                self.journal.append(records[next_journal])
                self._consumed += 1
                next_journal += 1

        def _settle(index: int, record: Dict) -> None:
            nonlocal done
            records[index] = record
            self._dump_failing(record)
            done += 1
            _flush_journal()

        while done < len(todo):
            # hand work to idle workers
            for worker in self._pool:
                if worker.task is None and pending:
                    index = pending.pop(0)
                    worker.assign(index, _spec_dict(index), self.timeout)
            # drain results
            try:
                message = self._result_queue.get(timeout=0.05)
            except Exception:
                message = None
            if message is not None:
                kind, worker_id, index, payload = message
                worker = next((w for w in self._pool if w.id == worker_id),
                              None)
                if kind == "start":
                    if worker is not None and worker.task == index:
                        worker.started = payload
                elif kind == "done":
                    self.executed += 1
                    _settle(index, payload)
                    if worker is not None and worker.task == index:
                        worker.finish()
                continue
            # no result: check timeouts and worker health
            now = time.monotonic()
            for slot, worker in enumerate(self._pool):
                if worker.task is None:
                    continue
                index = worker.task
                timed_out = (worker.deadline is not None
                             and now > worker.deadline)
                died = not worker.process.is_alive()
                if not timed_out and not died:
                    continue
                started = worker.started
                worker.kill()
                self._pool[slot] = self._spawn_worker()
                record = self._hung_record(specs[index], started)
                if died and not timed_out:
                    record["status"] = "worker-died"
                    record["violations"] = [
                        "worker process died before reporting a result"
                    ]
                else:
                    self.hung += 1
                self.log(f"  reaped run seed={specs[index].seed} "
                         f"({record['status']})")
                _settle(index, record)


def run_statistical(engine: CampaignEngine, config: CampaignConfig,
                    epsilon: float, z: float = stats.Z_95,
                    batch: int = 24, max_runs: int = 400,
                    start_seed: int = 0,
                    log: Optional[Callable[[str], None]] = None
                    ) -> List[Dict]:
    """Iterative statistical sampling: batches until Wilson convergence.

    Draws seed batches through ``engine`` until every engaged fault
    category's Wilson-interval half-width is at most ``epsilon`` (at
    confidence ``z``), or ``max_runs`` runs have been spent — the report
    marks any still-unconverged categories. Returns all run records.
    """
    records: List[Dict] = []
    seed = start_seed
    while True:
        per_category = stats.aggregate(records)
        if stats.converged(per_category, epsilon, z):
            break
        if len(records) >= max_runs:
            if log:
                log(f"  budget exhausted at {len(records)} runs; "
                    f"unconverged: "
                    f"{', '.join(stats.unconverged(per_category, epsilon, z))}")
            break
        size = min(batch, max_runs - len(records))
        specs = [RunSpec(seed + offset, config) for offset in range(size)]
        records.extend(engine.run(specs))
        seed += size
        if log:
            remaining = stats.unconverged(
                stats.aggregate(records), epsilon, z)
            log(f"  {len(records)} runs; "
                f"{len(remaining)} categories above epsilon")
    return records
