"""BioOperaServer: navigator + dispatcher + recovery over the data spaces.

"BioOpera functions to a large extent like a high-level distributed
operating system managing processes and the resources of a computer
cluster" (paper, Section 3.2). The server

* stores templates in the template space and instances in the instance
  space (every event durably appended *before* the engine acts on it);
* navigates instances, queues activity jobs, and places them on nodes
  through the dispatcher and the scheduling policy;
* consumes the activity queue: results and failures reported by PECs are
  recorded by the recovery path and drive further navigation;
* reacts to node failures, recoveries, load reports, and hardware
  reconfiguration through the awareness model;
* supports operator control (suspend/resume/abort/parameter changes/task
  restarts) and full crash recovery via :meth:`BioOperaServer.recover`.

It is an event-applying core that calls four optional durable policies
(:mod:`~repro.core.engine.policies`) at fixed points. It is clock- and
transport-agnostic: an
:class:`~repro.core.engine.environment.ExecutionEnvironment` supplies both.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING, Tuple

from ...errors import (
    EngineError,
    InvalidStateError,
    UnknownInstanceError,
    UnknownTemplateError,
)
from ...faults.points import fire
from ...store.spaces import OperaStore
from ..model.process import ProcessTemplate
from ..monitor.awareness import AwarenessModel
from . import events as ev
from .dispatcher import Dispatcher, JobRequest
from .instance import (
    DISPATCHED,
    ProcessInstance,
    RUNNING,
    SUSPENDED,
)
from .library import ProgramRegistry
from .navigator import Navigator
from .policies import (
    LeasePolicy, MemoPolicy, QuarantinePolicy, RebalancePolicy,
)
from .recovery import (
    InstanceMap, StepClock, ended, newest_event_time, replay_instance,
    staged_import,
)
from .scheduler import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import ObservabilityHub

#: the run counters the server itself books, pre-seeded to 0 in the hub's
#: registry so ``server.metrics["jobs_failed"]`` can be indexed before the
#: first failure.
RUN_COUNTERS = (
    "jobs_dispatched", "jobs_completed", "jobs_failed",
    "stale_results_ignored", "nodes_failed", "manual_interventions",
    "stale_epoch_reports", "epoch_fenced", "leases_granted",
    "leases_renewed", "leases_expired", "lease_double_grants",
    "memo_hits", "memo_misses",
)


class BioOperaServer:
    """The process-support server."""

    #: the durable policies, in install order; each names its setting
    #: (``SETTING``) and attribute (``ATTRIBUTE``, None while off).
    POLICY_SETTINGS = (LeasePolicy, QuarantinePolicy, MemoPolicy,
                       RebalancePolicy)

    def __init__(
        self,
        store: Optional[OperaStore] = None,
        registry: Optional[ProgramRegistry] = None,
        policy: Optional[SchedulingPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
        observability: Optional["ObservabilityHub"] = None,
        shard_index: Optional[int] = None,
    ):
        self.store = store or OperaStore()
        self.registry = registry or ProgramRegistry()
        self.awareness = AwarenessModel()
        self.dispatcher = Dispatcher(self.awareness, policy)
        self.navigator = Navigator(self)
        # Every server has a hub (None -> a fresh default one): its
        # checkpoint is what compacts the store. Imported lazily: obs
        # imports engine event constants, so a module-level import here
        # would be circular.
        if observability is None:
            from ...obs import ObservabilityHub

            observability = ObservabilityHub()
        self.obs = observability
        self.obs.attach(self.store)
        self.dispatcher.metrics = self.obs.metrics
        self.awareness.metrics = self.obs.metrics
        #: run-cumulative counters — the hub registry's own counter dict,
        #: so this mapping and the console's ``metrics_snapshot`` are one
        #: booking. Carried across a failover by ``recover_server``.
        self.metrics: Dict[str, int] = self.obs.metrics.counters
        for name in RUN_COUNTERS:
            self.metrics.setdefault(name, 0)
        self.clock = clock or StepClock()
        self.seed = seed
        self.up = True
        self.environment = None
        # Durable fencing epoch: bumped in the store on every (re)start and
        # promotion, before any dispatch. Every dispatch and every
        # emitted event carries it; a server that finds a newer epoch in
        # the shared store fences itself (see :meth:`_fenced`).
        self.epoch = int(
            self.store.configuration.setting("server_epoch", 0)
        ) + 1
        self.store.configuration.set_setting("server_epoch", self.epoch)
        # Shard identity: in a sharded control plane each server owns a
        # hash-range of instance ids and prefixes the ids it mints. The
        # index is persisted in this server's own configuration space so
        # a recovery re-derives it from the durable store instead of
        # inheriting it from a sibling's in-memory object. ``None`` is
        # the classic single-server deployment (no prefix).
        durable_shard = self.store.configuration.setting("shard_index")
        if shard_index is None:
            shard_index = durable_shard
        elif durable_shard is None:
            self.store.configuration.set_setting("shard_index", shard_index)
        elif int(durable_shard) != int(shard_index):
            raise EngineError(
                f"store belongs to shard {durable_shard}, not "
                f"{shard_index}"
            )
        self.shard_index = None if shard_index is None else int(shard_index)
        self.id_prefix = ("" if self.shard_index is None
                          else f"s{self.shard_index:02d}-")
        #: sharded deployments install a hook here so broadcast_signal
        #: reaches every shard instead of only locally-owned instances.
        self.broadcast_fanout: Optional[Callable[[str, str], None]] = None
        #: the installed policies (:attr:`POLICY_SETTINGS`); None while off.
        self.leases: Optional[LeasePolicy] = None
        self.quarantine: Optional[QuarantinePolicy] = None
        self.memo: Optional[MemoPolicy] = None
        self.migration: Optional[RebalancePolicy] = None
        self.instances = InstanceMap(self._replay, self.shard_index)
        #: instance ids quiesced for shard migration: dispatch is gated
        #: off and instance-scoped requests are deferred (the broker's
        #: redelivery retries them) until the move commits or rolls back.
        self.migrating: set = set()
        self._template_cache: Dict[Tuple[str, int], ProcessTemplate] = {}
        self.dispatcher.wire(
            submit=self._submit_job,
            record_dispatch=self._record_dispatch,
            is_dispatchable=self._is_dispatchable,
        )
        self.dispatcher.on_key_released = self._key_released

    # ------------------------------------------------------------------
    # Environment & cluster configuration
    # ------------------------------------------------------------------

    def attach_environment(self, environment) -> None:
        self.environment = environment
        environment.attach(self)
        lookup = getattr(environment, "job_finish_time", None)
        if lookup is not None:
            self.obs.tracing.finish_time_lookup = lookup

    def register_node(self, name: str, cpus: int, speed: float = 1.0,
                      tags: Tuple[str, ...] = (),
                      persist: bool = True) -> None:
        self.awareness.register(name, cpus, speed, tags)
        description = {"cpus": cpus, "speed": speed, "tags": list(tags)}
        # A recovery re-registers every stored node: only a description
        # the store does not already hold costs a commit.
        if persist and self.store.configuration.node(name) != description:
            self.store.configuration.save_node(name, description)

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------

    def define_template(self, template: ProcessTemplate) -> int:
        """Validate and store a template; returns its version number."""
        template.ensure_valid()
        version = self.store.templates.save(template.name, template.to_dict())
        self._template_cache[(template.name, version)] = template
        return version

    def define_template_ocr(self, source: str) -> int:
        from ..ocr.parser import parse_ocr

        return self.define_template(parse_ocr(source))

    def resolve_template(self, name: str,
                         version: Optional[int] = None
                         ) -> Tuple[ProcessTemplate, int]:
        if version is None:
            version = self.store.templates.latest_version(name)
            if version == 0:
                raise UnknownTemplateError(
                    f"template {name!r} not in template space"
                )
        cached = self._template_cache.get((name, version))
        if cached is None:
            cached = ProcessTemplate.from_dict(
                self.store.templates.load(name, version)
            )
            self._template_cache[(name, version)] = cached
        return cached, version

    def _resolver(self, name: str, version: Optional[int]) -> ProcessTemplate:
        template, _version = self.resolve_template(name, version)
        return template

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------

    def _next_instance_id(self, writes: Optional[Dict[str, Any]] = None
                          ) -> str:
        """Mint the next instance id from a durable O(1) counter.

        Committed now, or put into ``writes`` for the caller's (a
        launch's) transaction: durable before the id is, so no id is
        minted twice. Stored, not derived from the live ids, because a
        committed move keeps ``forward/<old id>``. Shard servers prefix
        their ids (``s03-pi-000042``).
        """
        serial = self.store.configuration.setting("instance_serial", 0) + 1
        if writes is None:
            self.store.configuration.set_setting("instance_serial", serial)
        else:
            writes[self.store.configuration.setting_key(
                "instance_serial")] = serial
        return f"{self.id_prefix}pi-{serial:06d}"

    def launch(self, template_name: str,
               inputs: Optional[Dict[str, Any]] = None,
               instance_id: Optional[str] = None,
               request_key: Optional[str] = None) -> str:
        """Create, persist, start and navigate a new instance.

        One transaction holds the spent serial, the create record, the
        ``[instance_created, instance_started]`` events and, given a
        ``request_key``, the key→id marker: a crash leaves all of them or
        none, so a broker redelivering a launch after a shard failover
        can never double-launch, and no instance is durable without a
        log. A key that already produced an instance returns that
        instance's id instead of launching again.
        """
        if request_key is not None:
            already = self.store.configuration.setting(
                f"request/{request_key}"
            )
            if already is not None:
                return already
        template, version = self.resolve_template(template_name, None)
        missing = [
            p.name for p in template.parameters
            if not p.optional and p.default is None
            and p.name not in (inputs or {})
        ]
        if missing:
            raise InvalidStateError(
                f"launch of {template_name!r} missing required inputs "
                f"{missing}"
            )
        writes: Dict[str, Any] = {}
        instance_id = instance_id or self._next_instance_id(writes)
        if request_key is not None:
            writes[self.store.configuration.setting_key(
                f"request/{request_key}")] = instance_id
        instance = ProcessInstance(instance_id, self._resolver)
        now = self.clock()
        self.emit_batch(instance, [
            ev.instance_created(
                template_name, version, dict(inputs or {}), now
            ),
            ev.instance_started(now),
        ], create=({"template_name": template_name, "version": version,
                    "request_key": request_key}, writes))
        self.instances[instance_id] = instance
        self.navigator.navigate(instance)
        self.dispatcher.pump()
        return instance_id

    def _replay(self, instance_id: str) -> ProcessInstance:
        """Rebuild an instance from its durable log into :attr:`instances`.

        Fires no fault point and writes nothing: a recovery, an adoption
        and the first read of a deferred instance all replay here.
        """
        instance = replay_instance(self.store, instance_id, self._resolver)
        self.instances[instance_id] = instance
        return instance

    def instance(self, instance_id: str) -> ProcessInstance:
        """The instance by id; replays it if recovery deferred it."""
        instance = self.instances.get(instance_id)
        if instance is None:
            raise UnknownInstanceError(f"unknown instance {instance_id!r}")
        return instance

    # ------------------------------------------------------------------
    # Durable event emission (persist first, then apply)
    # ------------------------------------------------------------------

    def emit(self, instance: ProcessInstance, event: Dict[str, Any]) -> None:
        """Persist one event, then apply it: a slice of one."""
        self._emit(instance, (event,))

    def emit_batch(self, instance: ProcessInstance,
                   events: List[Dict[str, Any]],
                   create: Optional[Tuple[Dict[str, Any], Dict[str, Any]]]
                   = None) -> None:
        """Persist ``events`` as one transaction, then apply them;
        ``create`` starts a new instance's log with them."""
        self._emit(instance, events, create)

    def _emit(self, instance: ProcessInstance, events,
              create: Optional[Tuple[Dict[str, Any], Dict[str, Any]]] = None
              ) -> None:
        """The one emit body: record the slice durably, then act on it.

        Crash before the append: the slice is lost entirely (the engine
        never acted on any of it, so nothing to repair). Crash after:
        every event is durable but the in-memory state never saw them —
        recovery must pick them up from the log. The single transaction
        means the log can never hold a prefix of the slice. ``create``
        (the create record and the writes that go with it) makes the
        slice the first of a new instance, in the same transaction.
        """
        if not events:
            return
        for event in events:
            event.setdefault("epoch", self.epoch)
            if (event["type"] == ev.TASK_COMPLETED
                    and not event["path"].endswith("#comp")):
                self._add_lineage(instance, event, events)
        # What a fired action records of its hit, so part of a campaign's
        # digest: a slice of one has no ``batch``.
        context = {"instance": instance.id, "type": events[0]["type"]}
        if len(events) > 1:
            context["batch"] = len(events)
        fire("server.emit.pre-persist", **context)
        self.store.instances.append_events(instance.id, events, create)
        self.instances.changed.add(instance.id)
        fire("server.emit.post-persist", **context)
        for event in events:
            self._apply_emitted(instance, event)

    def _apply_emitted(self, instance: ProcessInstance,
                       event: Dict[str, Any]) -> None:
        """Apply one already-persisted event to live engine state."""
        instance.apply(event)
        if (event["type"] == ev.TASK_COMPLETED
                and not event["path"].endswith("#comp")):
            self._raise_task_signals(instance, event["path"])

    def _raise_task_signals(self, instance: ProcessInstance,
                            path: str) -> None:
        """Emit the RAISE signals of a just-completed task."""
        state = instance.find_state(path)
        if state is None:
            return
        try:
            task = instance.frame_of(path).task_model(state.name)
        except EngineError:
            return
        for signal in task.raises:
            if signal not in instance.signals:
                self.emit(instance, ev.signal_raised(
                    signal, path, self.clock()
                ))

    def raise_signal(self, instance_id: str, name: str,
                     origin: str = "operator") -> None:
        """Inject an external OCR event signal into an instance (operator
        action or inter-process communication)."""
        instance = self.instance(instance_id)
        if instance.terminal:
            raise InvalidStateError("cannot signal a terminal instance")
        self.emit(instance, ev.signal_raised(
            name, f"external:{origin}", self.clock()
        ))
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    def deliver_signal(self, instance_id: str, name: str,
                       origin: str = "operator") -> bool:
        """Idempotent signal delivery (the broker's redelivery path).

        Unlike :meth:`raise_signal`, re-delivering a signal the instance
        already carries — or delivering to a terminal instance — is a
        harmless no-op instead of an error, so a request redelivered
        after a shard failover never produces a second ``signal_raised``
        event. Returns True when the signal was newly raised.
        """
        instance = self.instance(instance_id)
        if instance.terminal or name in instance.signals:
            return False
        self.raise_signal(instance_id, name, origin)
        return True

    def broadcast_signal(self, name: str, origin: str = "broadcast") -> None:
        """Raise a signal in every live instance (inter-process events).

        In a sharded deployment only a fraction of the instances live
        here; the control plane installs :attr:`broadcast_fanout` so the
        broadcast is routed through the broker to *every* shard instead
        of silently reaching just the local ones.
        """
        if self.broadcast_fanout is not None:
            self.broadcast_fanout(name, origin)
            return
        self._broadcast_local(name, origin)

    def _broadcast_local(self, name: str, origin: str = "broadcast") -> None:
        """Deliver a broadcast to locally-owned instances only.

        Idempotent: instances already carrying the signal (a broker
        redelivery after failover, or an earlier partial broadcast) are
        skipped, so redelivery can never double-raise. Replays nothing:
        an instance recovery deferred has ended and would be skipped.
        """
        for instance in sorted(self.instances.loaded(),
                               key=lambda instance: instance.id):
            if not instance.terminal and name not in instance.signals:
                self.emit(instance, ev.signal_raised(
                    name, f"external:{origin}", self.clock()
                ))
                self.navigator.navigate(instance)
        self.dispatcher.pump()

    def _add_lineage(self, instance: ProcessInstance,
                     event: Dict[str, Any], events) -> None:
        """Record in a task completion the derivation it makes.

        Dataset names are relative to the instance: a task's output
        structure is ``<task path>``, a whiteboard item
        ``wb:<scope><name>`` (the provenance fold prefixes the instance
        id, so a migration's re-based id needs no rewrite). Output
        mappings make the task a producer of the whiteboard items it
        writes, which links consumers that read those items into the
        provenance graph. A dispatch of the task in the same slice (a
        memo hit) opens the attempt that completes.
        """
        path = event["path"]
        state = instance.find_state(path)
        if state is None:
            return
        frame = instance.frame_of(path)
        task = frame.task_model(state.name)
        wb_scope = frame.whiteboard_path
        inputs = []
        for _param, binding in sorted(task.inputs.items()):
            if binding.kind == "task":
                inputs.append(f"{frame.path}{binding.name}")
            elif binding.kind == "whiteboard":
                inputs.append(f"wb:{wb_scope}{binding.name}")
        outputs = [path]
        for _field, wb_name in task.output_mappings:
            outputs.append(f"wb:{wb_scope}{wb_name}")
        program, attempt = state.program, state.attempts
        for other in events:
            if other["type"] == ev.TASK_DISPATCHED and other["path"] == path:
                program, attempt = other["program"], other["attempt"]
        event["lineage"] = {
            "inputs": inputs,
            "outputs": outputs,
            "program": program,
            # Joins this derivation to the task span of the attempt that
            # produced it.
            "attempt": attempt,
            # Content key of this execution in the memo cache (empty when
            # memoization is off) — smart rerun invalidates through it.
            "memo_key": ("" if self.memo is None else self.memo.pending.get(
                (instance.id, path, attempt), "")),
        }

    # ------------------------------------------------------------------
    # Dispatcher wiring
    # ------------------------------------------------------------------

    def queue_job(self, instance_id: str, task_path: str, program: str,
                  inputs: Dict[str, Any], attempt: int,
                  placement: str = "", cost_hint: float = 0.0) -> None:
        if (self.memo is not None and not task_path.endswith("#comp")
                and self.memo.consult(instance_id, task_path, program,
                                      inputs, attempt)):
            return
        job = JobRequest(
            instance_id=instance_id,
            task_path=task_path,
            program=program,
            inputs=inputs,
            attempt=attempt,
            placement=placement,
            cost_hint=cost_hint,
            enqueued_at=self.clock(),
            epoch=self.epoch,
        )
        self.dispatcher.enqueue(job)

    def is_pending(self, instance_id: str, task_path: str) -> bool:
        return self.dispatcher.is_pending(instance_id, task_path)

    def _key_released(self, instance_id: str, task_path: str) -> None:
        """A task stopped being pending without an event to say so: the
        navigator parked it on its dispatcher key and must look again."""
        instance = self.instances.get(instance_id)
        if instance is not None:
            instance.wake_path(task_path)

    def _is_dispatchable(self, instance_id: str) -> bool:
        instance = self.instances.get(instance_id) if self.up else None
        return (instance is not None and not instance.terminal
                and instance_id not in self.migrating
                and instance.status == RUNNING)

    def _record_dispatch(self, job: JobRequest, node: str) -> bool:
        if not self.up or self._fenced():
            return False
        instance = self.instances.get(job.instance_id)
        if instance is None or instance.terminal:
            return False
        if not job.task_path.endswith("#comp"):
            state = instance.find_state(job.task_path)
            if state is None or state.status in ("completed", "skipped"):
                return False
            if state.attempts + 1 != job.attempt:
                return False
        # Crash between the placement decision and its durable record: no
        # task_dispatched event exists, so recovery simply re-queues.
        fire("server.dispatch.record", job=job.job_id, node=node)
        now = self.clock()
        # Open before the emit so the hub's event stream sees an open
        # span to enrich rather than synthesizing one without the
        # enqueue time.
        self.obs.tracing.open_span(
            job.instance_id, job.task_path, node, job.program,
            job.attempt, job.enqueued_at, now,
        )
        self.obs.metrics.observe(
            "dispatch_latency", max(0.0, now - job.enqueued_at)
        )
        self.emit(instance, ev.task_dispatched(
            job.task_path, node, job.program, job.attempt, now
        ))
        self.metrics["jobs_dispatched"] += 1
        if self.leases is not None:
            self.leases.grant(job, node)
        return True

    def _submit_job(self, job: JobRequest, node: str) -> None:
        if self.environment is None:
            raise EngineError("server has no execution environment")
        self.environment.submit(job, node)

    @staticmethod
    def _is_current(instance: ProcessInstance, job: JobRequest) -> bool:
        """Is ``job`` its task's current attempt? (An undo job always is.)"""
        if job.task_path.endswith("#comp"):
            return True
        state = instance.find_state(job.task_path)
        return (state is not None and state.status == DISPATCHED
                and state.attempts == job.attempt)

    def _kill(self, job_id: str) -> None:
        """Stop an in-flight job: release it here, cancel it on its node."""
        entry = self.dispatcher.job_finished(job_id)
        if self.environment is not None:
            self.environment.cancel(job_id)
        if entry is not None and self.memo is not None:
            self.memo.forget(entry[0])

    def _drop_jobs(self, instance_id: str) -> None:
        """Kill an instance's in-flight jobs and drop its queued ones."""
        for job_id in self.dispatcher.inflight_for_instance(instance_id):
            self._kill(job_id)
        self.dispatcher.drop_instance(instance_id)
        if self.memo is not None:
            self.memo.forget_instance(instance_id)

    # ------------------------------------------------------------------
    # Activity queue (results inbound from PECs) — the recovery module path
    # ------------------------------------------------------------------

    def _accept_report(self, job_id: str, epoch: Optional[int]
                       ) -> Optional[Tuple[JobRequest, ProcessInstance]]:
        """The job and instance a PEC report settles, or None: a dead or
        fenced server drops it; a report from another epoch (``None``/0 is
        an unfenced transport), for a job not in flight, or for an attempt
        no longer its task's current one books its counter and pumps."""
        if not self.up or self._fenced():
            return None
        if epoch and epoch != self.epoch:
            self.metrics["stale_epoch_reports"] += 1
            self.dispatcher.pump()
            return None
        entry = self.dispatcher.job_finished(job_id)
        if entry is None:
            self.metrics["stale_results_ignored"] += 1
            self.dispatcher.pump()
            return None
        job, _node = entry
        instance = self.instances.get(job.instance_id)
        if instance is None or instance.terminal:
            self.dispatcher.pump()
            return None
        if not self._is_current(instance, job):
            self.metrics["stale_results_ignored"] += 1
            self.dispatcher.pump()
            return None
        return job, instance

    def on_job_completed(self, job_id: str, outputs: Dict[str, Any],
                         cost: float, node: str,
                         epoch: Optional[int] = None) -> None:
        accepted = self._accept_report(job_id, epoch)
        if accepted is None:
            return
        job, instance = accepted
        self.metrics["jobs_completed"] += 1
        self.emit(instance, ev.task_completed(
            job.task_path, outputs, cost, node, self.clock()
        ))
        if self.memo is not None:  # after the emit: its lineage reads the key
            self.memo.complete(job, outputs)
        self.navigator.navigate(instance)
        if self.migration is not None:
            self.migration.review()  # a slot just freed up
        self.dispatcher.pump()

    def on_job_failed(self, job_id: str, reason: str, node: str,
                      detail: str = "", epoch: Optional[int] = None) -> None:
        accepted = self._accept_report(job_id, epoch)
        if accepted is None:
            return
        job, instance = accepted
        self.metrics["jobs_failed"] += 1
        if self.memo is not None:
            self.memo.forget(job)
        now = self.clock()
        self.obs.metrics.inc("retries_infrastructure"
                             if reason in ev.INFRASTRUCTURE_REASONS
                             else "retries_program")
        self.emit(instance, ev.task_failed(
            job.task_path, reason, node, job.attempt, now,
            detail=detail,
        ))
        if (self.quarantine is not None
                and reason in ev.NODE_ATTRIBUTED_REASONS):
            self.quarantine.strike(node, now)
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    # ------------------------------------------------------------------
    # Node & load reports
    # ------------------------------------------------------------------

    def on_node_down(self, node: str) -> None:
        if not self.up or self._fenced() or not self.awareness.has_node(node):
            return
        self.metrics["nodes_failed"] += 1
        self._fail_lost(node, self.awareness.node_down(node, self.clock()))
        self.dispatcher.pump()

    def on_node_up(self, node: str, running=None) -> None:
        """A node (re)joined. ``running`` is the set of job ids its PEC
        actually has; jobs we believe are there but are not get failed —
        this covers a crash+restore that beat the failure detector."""
        if not self.up or self._fenced() or not self.awareness.has_node(node):
            return
        if self.quarantine is not None:
            self.quarantine.forget(node)  # a fresh join resets strikes
        self.awareness.node_up(node, self.clock())
        if running is not None:
            self._fail_lost(node, [
                job_id for job_id in self.dispatcher.jobs_on_node(node)
                if job_id not in running
            ])
        self.dispatcher.pump()

    def _fail_lost(self, node: str, job_ids) -> None:
        """Fail the jobs ``node`` lost (``node-crash``). Unlike a failure
        report this books neither ``jobs_failed``, the retry counters nor
        a quarantine strike: the node did not fail the job, it went away."""
        for job_id in job_ids:
            entry = self.dispatcher.job_finished(job_id)
            if entry is None:
                continue
            job, _node = entry
            if self.memo is not None:
                self.memo.forget(job)
            instance = self.instances.get(job.instance_id)
            if (instance is None or instance.terminal
                    or not self._is_current(instance, job)):
                continue
            self.emit(instance, ev.task_failed(
                job.task_path, "node-crash", node, job.attempt,
                self.clock(),
            ))
            self.navigator.navigate(instance)

    def on_node_reconfigured(self, node: str, cpus: Optional[int] = None,
                             speed: Optional[float] = None) -> None:
        if not self.up:
            return
        self.awareness.reconfigure(node, cpus=cpus, speed=speed)
        self.store.configuration.save_node(node, {
            "cpus": self.awareness.node(node).cpus,
            "speed": self.awareness.node(node).speed,
            "tags": list(self.awareness.node(node).tags),
        })
        self.dispatcher.pump()

    def on_load_report(self, node: str, external_load: float) -> None:
        if not self.up or self._fenced() or not self.awareness.has_node(node):
            return
        self.awareness.load_report(node, external_load, self.clock())
        if self.migration is not None:
            self.migration.review()
        self.dispatcher.pump()

    def on_probe_result(self, node: str, ok: bool = True) -> None:
        """A quarantine probe reported back; success re-admits the node."""
        if not self.up or not self.awareness.has_node(node):
            return
        if self.quarantine is not None:
            self.quarantine.probed(node, ok)
        if ok:
            self.awareness.release_quarantine(node)
            self.dispatcher.pump()

    # ------------------------------------------------------------------
    # Epoch fencing & the durable policies (policies.py)
    # ------------------------------------------------------------------

    def _fenced(self) -> bool:
        """Self-fence against a newer server sharing the durable store.

        A promotion bumps the store's epoch; the moment an old
        incarnation sharing that store consults it and sees a newer
        epoch it stands down (``up = False``) instead of racing the new
        server's writes.
        """
        durable = int(
            self.store.configuration.setting("server_epoch", self.epoch)
        )
        if durable <= self.epoch:
            return False
        self.up = False
        self.metrics["epoch_fenced"] += 1
        return True

    def _install(self, policy, *args) -> None:
        """Install ``policy``, or re-argue the installed one in place (its
        live state kept); persist ``args`` for recovery to re-derive it."""
        installed = getattr(self, policy.ATTRIBUTE)
        if installed is None:
            setattr(self, policy.ATTRIBUTE, policy(self, *args))
        else:
            installed.args = args
        self.store.configuration.set_setting(policy.SETTING, list(args))

    def enable_leases(self, base: float = 900.0, factor: float = 4.0) -> None:
        """Lease every dispatch (:class:`~.policies.LeasePolicy`)."""
        self._install(LeasePolicy, base, factor)

    def enable_quarantine(self, threshold: int = 3, window: float = 900.0,
                          probe_after: float = 600.0) -> None:
        """Bench failing nodes (:class:`~.policies.QuarantinePolicy`)."""
        self._install(QuarantinePolicy, threshold, window, probe_after)

    def enable_memoization(self) -> None:
        """Cache results by content key (:class:`~.policies.MemoPolicy`)."""
        self._install(MemoPolicy)

    def enable_migration(self, min_rate: float = 0.25,
                         improvement: float = 2.0,
                         max_attempts: int = 6) -> None:
        """Kill and restart starving jobs elsewhere
        (:class:`~.policies.RebalancePolicy`)."""
        self._install(RebalancePolicy, min_rate, improvement, max_attempts)

    # ------------------------------------------------------------------
    # Operator controls
    # ------------------------------------------------------------------

    def suspend(self, instance_id: str, reason: str = "operator") -> None:
        instance = self.instance(instance_id)
        if instance.terminal or instance.status == SUSPENDED:
            raise InvalidStateError(
                f"cannot suspend instance in state {instance.status!r}"
            )
        self.metrics["manual_interventions"] += 1
        self.emit(instance, ev.instance_suspended(reason, self.clock()))

    def resume(self, instance_id: str) -> None:
        instance = self.instance(instance_id)
        if instance.status != SUSPENDED:
            raise InvalidStateError(
                f"cannot resume instance in state {instance.status!r}"
            )
        self.metrics["manual_interventions"] += 1
        self.emit(instance, ev.instance_resumed(self.clock()))
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    def abort(self, instance_id: str, reason: str = "operator-abort") -> None:
        instance = self.instance(instance_id)
        if instance.terminal:
            raise InvalidStateError("instance already terminal")
        self.metrics["manual_interventions"] += 1
        self.finalize_abort(instance, reason)

    def finalize_abort(self, instance: ProcessInstance, reason: str) -> None:
        self._drop_jobs(instance.id)
        self.emit(instance, ev.instance_aborted(reason, self.clock()))
        self.dispatcher.pump()

    def change_parameter(self, instance_id: str, name: str, value: Any,
                         scope: str = "") -> None:
        """Operator edit of a whiteboard item (paper, Section 3.4).

        Only a live instance is edited: an edit after the terminal event
        would make the log read as live again. Restart a task to reopen
        an ended one first."""
        instance = self.instance(instance_id)
        if instance.terminal:
            raise InvalidStateError(
                f"instance {instance_id!r} has ended ({instance.status}); "
                "restart a task to reopen it")
        self.metrics["manual_interventions"] += 1
        self.emit(instance, ev.whiteboard_set(scope, name, value, self.clock()))
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    def restart_task(self, instance_id: str, task_path: str,
                     reason: str = "operator-restart") -> None:
        """Re-run a task (and everything it had expanded into)."""
        instance = self.instance(instance_id)
        state = instance.find_state(task_path)
        if state is None:
            raise InvalidStateError(f"no task at path {task_path!r}")
        self.metrics["manual_interventions"] += 1
        # Kill what is running at or under the path first: a reset task
        # whose old dispatcher key were still live would not be re-queued,
        # and the old job's result, stale by then, would re-queue nothing.
        for job_id in self.dispatcher.inflight_for_instance(instance_id):
            path = self.dispatcher.in_flight[job_id][0].task_path
            if path == task_path or path.startswith(f"{task_path}/"):
                self._kill(job_id)
        self.emit(instance, ev.task_reset(task_path, self.clock(), reason))
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    # ------------------------------------------------------------------
    # Server crash & recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a server failure: in-memory state is lost, durable
        state (the store) survives. PEC results sent while down are lost."""
        self.up = False

    @classmethod
    def recover(
        cls,
        store: OperaStore,
        registry: ProgramRegistry,
        environment=None,
        policy: Optional[SchedulingPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
        observability: Optional["ObservabilityHub"] = None,
    ) -> "BioOperaServer":
        """Rebuild a server from the durable store after a crash.

        Replays the event log of every instance that may have work left;
        in-flight tasks (dispatched but with no recorded outcome) are
        marked failed with reason ``server-recovery`` and re-scheduled,
        exactly as in the paper's event 2: "when the server recovers,
        [processes] are automatically resumed." An instance whose log
        says it :func:`~repro.core.engine.recovery.ended` is only entered
        in :attr:`instances`; whoever reads it first replays it.

        Everything recovery needs is re-derived from the durable store —
        shard identity, the four policies in :attr:`POLICY_SETTINGS`,
        and (when neither the caller nor the environment brings a clock)
        the fallback clock seeded past the newest logged timestamp. An
        explicit ``clock`` still wins.
        """
        # The hub attaches (and its views catch up from the durable log)
        # inside __init__, BEFORE the recovery emissions below — so the
        # views stay in lock-step with everything recovery appends.
        server = cls(store=store, registry=registry, policy=policy,
                     clock=clock, seed=seed, observability=observability)
        if environment is not None:
            server.attach_environment(environment)
        if clock is None and isinstance(server.clock, StepClock):
            # No environment, or one that keeps no time (the inline one):
            # the fallback clock must resume *after* the newest event
            # time in the durable log, or the recovery emissions below
            # would be stamped before events that precede them.
            server.clock.t = max(server.clock.t, newest_event_time(store))
        for policy_class in cls.POLICY_SETTINGS:
            config = store.configuration.setting(policy_class.SETTING)
            if config is not None:
                server._install(policy_class, *config)
        for node, config in store.configuration.nodes().items():
            if not server.awareness.has_node(node):
                server.awareness.register(
                    node, config["cpus"], config.get("speed", 1.0),
                    tuple(config.get("tags", ())),
                )
        for instance_id in store.instances.instance_ids():
            if staged_import(store, instance_id):
                continue
            # Crash during recovery replay itself: the next recovery must
            # start over from the same durable log and still succeed.
            fire("recovery.replay", instance=instance_id)
            if ended(store, instance_id):
                server.instances.defer(instance_id)
            else:
                server._redrive(server._replay(instance_id),
                                "server-recovery")
        live = server.instances.loaded()
        server.obs.metrics.inc("recovery.instances_replayed", len(live))
        server.obs.metrics.inc("recovery.instances_deferred",
                               len(server.instances) - len(live))
        for instance in live:
            if not instance.terminal:
                server.navigator.navigate(instance)
        server.dispatcher.pump()
        return server

    def _redrive(self, instance: ProcessInstance, reason: str) -> None:
        """Fail, in one batch, every dispatched task whose job will never
        report here (a failover, a shard move), so navigation re-queues it.
        A terminal one (an edit after its end keeps it in recovery's
        replay) has none."""
        if instance.terminal:
            return
        self.emit_batch(instance, [
            ev.task_failed(state.path, reason, state.node, state.attempts,
                           self.clock())
            for state in instance.dispatched_states()
        ])

    # ------------------------------------------------------------------
    # Shard migration support (driven by repro.shard.migrate)
    # ------------------------------------------------------------------

    def quiesce_for_migration(self, instance_id: str) -> None:
        """Freeze an instance for migration WITHOUT touching its log.

        In-flight jobs are cancelled on the nodes and dropped from the
        dispatcher, but — unlike :meth:`finalize_abort` — no event is
        emitted: the exported log must stay byte-identical to what the
        source shard persisted, and the *target* shard re-drives the
        cancelled work through the ordinary kill-and-restart path after
        adoption.
        """
        self.migrating.add(instance_id)
        self._drop_jobs(instance_id)

    def complete_migration(self, instance_id: str) -> None:
        """Forget an instance whose migration committed (log tombstoned),
        its view folds and derivations included.

        Replays nothing: a deferred instance leaves as it came.
        """
        self.migrating.discard(instance_id)
        if instance_id in self.instances:
            del self.instances[instance_id]
        self.obs.views.forget(instance_id)

    def abandon_migration(self, instance_id: str) -> None:
        """Roll back a quiesce: the instance stays on this shard.

        Work cancelled by the quiesce is re-driven through the
        infrastructure retry path (reason ``shard-migration``), exactly
        like recovery re-drives dispatched-but-unreported tasks.
        """
        self.migrating.discard(instance_id)
        instance = self.instances.get(instance_id)
        if instance is None or instance.terminal:
            return
        self._redrive(instance, "shard-migration")
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    def adopt_epoch(self, epoch: int) -> None:
        """Raise this server's fencing epoch to at least ``epoch``.

        Imported events carry the source shard's epochs; the per-log
        epoch-monotonicity invariant requires everything this server
        emits afterwards to be stamped no lower. A raise re-issues the
        work this server has out: a job stamped with the old epoch would
        report in it and be refused as stale, so every live instance's
        queued and in-flight jobs are dropped and re-driven (reason
        ``shard-migration``) in the new one.
        """
        if int(epoch) <= self.epoch:
            return
        self.epoch = int(epoch)
        self.store.configuration.set_setting("server_epoch", self.epoch)
        for instance in self.instances.loaded():
            if instance.terminal or instance.id in self.migrating:
                continue
            self._drop_jobs(instance.id)
            if instance.dispatched_states():
                self._redrive(instance, "shard-migration")
            self.navigator.navigate(instance)
        self.dispatcher.pump()

    def adopt_instance(self, instance_id: str) -> str:
        """Activate an imported instance: replay its log, re-drive work.

        The imported copy's dispatched-but-unreported tasks (quiesced on
        the source shard) are failed with the infrastructure reason
        ``shard-migration`` and re-scheduled here — the PEC
        retransmission path, applied across shards. An instance that
        ended before the move has no work to re-drive and, as in
        :meth:`recover`, is replayed by its first reader instead.
        """
        if ended(self.store, instance_id):
            self.instances.defer(instance_id)
            return instance_id
        instance = self._replay(instance_id)
        if not instance.terminal:
            self._redrive(instance, "shard-migration")
            self.navigator.navigate(instance)
            self.dispatcher.pump()
        return instance_id

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def statistics(self, instance_id: str) -> Dict[str, Any]:
        """The paper's accounting: CPU(pi), |A|, CPU(A), status."""
        instance = self.instance(instance_id)
        activities = instance.activity_count()
        cpu = instance.total_cpu_seconds()
        return {
            "instance_id": instance_id,
            "status": instance.status,
            "activities_completed": activities,
            "cpu_seconds": cpu,
            "cpu_per_activity": cpu / activities if activities else 0.0,
            "events": instance.event_count,
            "progress": instance.progress(),
        }
