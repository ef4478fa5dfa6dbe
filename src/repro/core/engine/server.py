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

The server is clock- and transport-agnostic: an
:class:`~repro.core.engine.environment.ExecutionEnvironment` supplies both.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING, Tuple

from ...errors import (
    EngineError,
    InvalidStateError,
    UnknownInstanceError,
    UnknownTemplateError,
)
from ...faults.points import fire
from ...store import codec
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
from .recovery import ended, replay_instance
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


class StepClock:
    """Deterministic fallback clock: advances one second per reading."""

    def __init__(self, start: float = 0.0):
        self.t = start

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class InstanceMap(dict):
    """``instance id -> ProcessInstance`` of one server.

    A recovery replays live work only. An id whose durable meta says the
    instance has ended is :meth:`defer`-red: known by id, and replayed
    from its event log by the first ``[]``, ``get``, ``values``,
    ``items`` or ``pop`` that would hand the instance out — once, for as
    long as the server lives. ``in``, ``len``, ``del`` and iteration
    over ids (instances in memory first, then deferred ids) replay
    nothing; :meth:`loaded` is the instances in memory, which every live
    one is. A hit on an instance in memory is the plain ``dict``'s.
    """

    def __init__(self, replay: Callable[[str], ProcessInstance]):
        super().__init__()
        #: enters the replayed instance under its id and returns it.
        self._replay = replay
        #: ended instances not replayed yet (ids only, in entry order).
        self._deferred: Dict[str, None] = {}

    def defer(self, instance_id: str) -> None:
        """Enter an ended instance by id only; its first reader replays."""
        self._deferred[instance_id] = None

    def loaded(self) -> List[ProcessInstance]:
        """The instances in memory, in order of entry; replays none."""
        return list(dict.values(self))

    def __missing__(self, instance_id: str) -> ProcessInstance:
        if instance_id not in self._deferred:
            raise KeyError(instance_id)
        instance = self._replay(instance_id)
        del self._deferred[instance_id]
        return instance

    def get(self, instance_id: str, default=None):
        try:
            return self[instance_id]
        except KeyError:
            return default

    def __contains__(self, instance_id) -> bool:
        return (dict.__contains__(self, instance_id)
                or instance_id in self._deferred)

    def __len__(self) -> int:
        return dict.__len__(self) + len(self._deferred)

    def __iter__(self):
        return chain(dict.__iter__(self), self._deferred)

    def __delitem__(self, instance_id: str) -> None:
        if instance_id in self._deferred:
            del self._deferred[instance_id]
        else:
            dict.__delitem__(self, instance_id)

    def _replay_deferred(self) -> None:
        for instance_id in list(self._deferred):
            self[instance_id]

    def values(self):
        self._replay_deferred()
        return dict.values(self)

    def items(self):
        self._replay_deferred()
        return dict.items(self)

    def pop(self, instance_id: str, *default):
        self.get(instance_id)
        return dict.pop(self, instance_id, *default)


class BioOperaServer:
    """The process-support server."""

    #: the durable policies: configuration-space setting -> the method
    #: that installs it. Each setting holds that method's argument list,
    #: and :meth:`recover` re-derives all four from the store.
    POLICY_SETTINGS = (
        ("lease_config", "enable_leases"),
        ("quarantine_config", "enable_quarantine"),
        ("memo_config", "enable_memoization"),
        ("migration_config", "enable_migration"),
    )

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
        # standby promotion, before any dispatch. Every dispatch and every
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
        self.migration = None  # (min_rate, improvement) when enabled
        self.quarantine = None  # (threshold, window, probe_after) when on
        self.leases = None  # (base, factor) when enabled
        #: content-keyed result memoization (smart-rerun support).
        self.memoize = False
        #: (instance_id, path, attempt) -> memo content key, bridging
        #: queue_job's cache consult to lineage recording (the record's
        #: ``memo_key`` field) and result storage on completion.
        self._memo_pending: Dict[Tuple[str, str, int], str] = {}
        #: job_id -> live lease record (key, attempt, node, duration, event).
        self._leases: Dict[str, Dict[str, Any]] = {}
        self._lease_keys: Dict[str, str] = {}  # job key -> holder job_id
        self._node_failures: Dict[str, List[float]] = {}
        self.instances = InstanceMap(self._replay)
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
        self.dispatcher.on_release = self._release_lease
        self.dispatcher.on_key_released = self._key_released
        self.dispatcher.pre_submit = self._sync_barrier

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
        if persist:
            self.store.configuration.save_node(name, {
                "cpus": cpus, "speed": speed, "tags": list(tags),
            })

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

    def _next_instance_id(self) -> str:
        """Mint the next instance id from a durable O(1) counter.

        The counter lives in the configuration space and is bumped
        *before* the instance is created: a crash between the two burns a
        serial (gaps are harmless), but two launches — even across a
        crash+recovery — can never mint the same id. Shard servers
        prefix their ids (``s03-pi-000042``), so no two shards' counters
        can collide either.
        """
        serial = self.store.configuration.setting("instance_serial", 0) + 1
        self.store.configuration.set_setting("instance_serial", serial)
        return f"{self.id_prefix}pi-{serial:06d}"

    def launch(self, template_name: str,
               inputs: Optional[Dict[str, Any]] = None,
               instance_id: Optional[str] = None,
               request_key: Optional[str] = None) -> str:
        """Create, persist, start and navigate a new instance.

        ``request_key`` makes the launch idempotent: a key that already
        produced an instance returns that instance's id instead of
        launching again. The key→id marker is written in the same store
        transaction as the instance itself, so a broker redelivering a
        launch after a shard failover can never double-launch.
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
        instance_id = instance_id or self._next_instance_id()
        instance = ProcessInstance(instance_id, self._resolver)
        extra = None
        if request_key is not None:
            extra = {
                self.store.configuration.setting_key(
                    f"request/{request_key}"): instance_id,
            }
        self.store.instances.create(instance_id, {
            "template_name": template_name,
            "version": version,
            "status": "created",
            "request_key": request_key,
        }, extra=extra)
        self.instances[instance_id] = instance
        now = self.clock()
        self.emit_batch(instance, [
            ev.instance_created(
                template_name, version, dict(inputs or {}), now
            ),
            ev.instance_started(now),
        ])
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
                   events: List[Dict[str, Any]]) -> None:
        """Persist ``events`` as one transaction, then apply them."""
        self._emit(instance, events)

    def _emit(self, instance: ProcessInstance, events) -> None:
        """The one emit body: record the slice durably, then act on it.

        Crash before the append: the slice is lost entirely (the engine
        never acted on any of it, so nothing to repair). Crash after:
        every event is durable but the in-memory state never saw them —
        recovery must pick them up from the log. The single transaction
        means the log can never hold a prefix of the slice.
        """
        if not events:
            return
        for event in events:
            event.setdefault("epoch", self.epoch)
        # What a fired action records of its hit, so part of a campaign's
        # digest: a slice of one has no ``batch``.
        context = {"instance": instance.id, "type": events[0]["type"]}
        if len(events) > 1:
            context["batch"] = len(events)
        fire("server.emit.pre-persist", **context)
        self.store.instances.append_events(instance.id, events)
        fire("server.emit.post-persist", **context)
        for event in events:
            self._apply_emitted(instance, event)

    def _apply_emitted(self, instance: ProcessInstance,
                       event: Dict[str, Any]) -> None:
        """Apply one already-persisted event to live engine state."""
        instance.apply(event)
        if event["type"] in (
            ev.INSTANCE_COMPLETED, ev.INSTANCE_ABORTED, ev.INSTANCE_STARTED,
            ev.INSTANCE_SUSPENDED, ev.INSTANCE_RESUMED,
        ):
            self.store.instances.update_meta(
                instance.id, status=instance.status
            )
        if (event["type"] == ev.TASK_COMPLETED
                and not event["path"].endswith("#comp")):
            self._record_lineage(instance, event)
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

    def _record_lineage(self, instance: ProcessInstance,
                        event: Dict[str, Any]) -> None:
        """Derive a lineage record from the completed task's data flow.

        Dataset naming: a task's output structure is
        ``<instance>/<task path>``; a whiteboard item is
        ``<instance>/wb:<scope><name>``. Output mappings make the task a
        producer of the whiteboard items it writes, which links consumers
        that read those items into the provenance graph.
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
                inputs.append(f"{instance.id}/{frame.path}{binding.name}")
            elif binding.kind == "whiteboard":
                inputs.append(f"{instance.id}/wb:{wb_scope}{binding.name}")
        outputs = [f"{instance.id}/{path}"]
        for _field, wb_name in task.output_mappings:
            outputs.append(f"{instance.id}/wb:{wb_scope}{wb_name}")
        self.store.data.append_lineage({
            "outputs": outputs,
            "inputs": inputs,
            "program": state.program,
            "instance_id": instance.id,
            "task": path,
            "timestamp": event["time"],
            # Joins this derivation to the task span of the attempt that
            # produced it (state.attempts is the completing attempt).
            "span": f"{instance.id}:{path}:{state.attempts}",
            # Content key of this execution in the memo cache (empty when
            # memoization is off) — smart rerun invalidates through it.
            "memo_key": self._memo_pending.get(
                (instance.id, path, state.attempts), ""
            ),
        })

    # ------------------------------------------------------------------
    # Dispatcher wiring
    # ------------------------------------------------------------------

    def _memo_content_key(self, program: str,
                          inputs: Dict[str, Any]) -> str:
        """Content key of one execution: program + canonical inputs."""
        payload = codec.encode({
            "program": program,
            "inputs": {name: inputs[name] for name in sorted(inputs)},
        })
        return hashlib.sha256(payload).hexdigest()

    def _replay_memoized(self, instance: ProcessInstance, task_path: str,
                         program: str, attempt: int,
                         outputs: Dict[str, Any]) -> None:
        """Complete a task from the memo cache without dispatching.

        Emitted as a normal dispatched→completed pair on the virtual node
        ``"memo"`` so replay, views, lineage, and the exactly-once checks
        see an ordinary (zero-cost) execution. No dispatcher slot is
        taken and no lease granted — there is nothing to expire.
        """
        now = self.clock()
        self.emit_batch(instance, [
            ev.task_dispatched(task_path, "memo", program, attempt, now),
            ev.task_completed(task_path, outputs, 0.0, "memo", now),
        ])

    def queue_job(self, instance_id: str, task_path: str, program: str,
                  inputs: Dict[str, Any], attempt: int,
                  placement: str = "", cost_hint: float = 0.0) -> None:
        if self.memoize and not task_path.endswith("#comp"):
            key = self._memo_content_key(program, inputs)
            self._memo_pending[(instance_id, task_path, attempt)] = key
            cached = self.store.data.memo_get(key)
            instance = self.instances.get(instance_id)
            if cached is not None and instance is not None:
                self.metrics["memo_hits"] += 1
                self._replay_memoized(
                    instance, task_path, program, attempt, cached
                )
                self._memo_pending.pop(
                    (instance_id, task_path, attempt), None
                )
                return
            self.metrics["memo_misses"] += 1
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
        if not self.up:
            return False
        instance = self.instances.get(instance_id)
        if instance is None:
            return False
        if instance.terminal:
            return False
        if instance_id in self.migrating:
            return False
        return instance.status == RUNNING

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
            self._grant_lease(job, node)
        return True

    def _submit_job(self, job: JobRequest, node: str) -> None:
        if self.environment is None:
            raise EngineError("server has no execution environment")
        self.environment.submit(job, node)

    def _sync_barrier(self) -> None:
        # Durability barrier before externalization: under a grouped sync
        # policy, flush any pending commits before jobs leave the server so
        # a node can never observe work whose dispatch record could still
        # be lost. No-op when the store syncs per commit.
        self.store.kv.flush()

    # ------------------------------------------------------------------
    # Activity queue (results inbound from PECs) — the recovery module path
    # ------------------------------------------------------------------

    def on_job_completed(self, job_id: str, outputs: Dict[str, Any],
                         cost: float, node: str,
                         epoch: Optional[int] = None) -> None:
        if not self.up or self._fenced():
            return
        if self._stale_epoch(epoch, job_id, "completion"):
            return
        entry = self.dispatcher.job_finished(job_id)
        if entry is None:
            self.metrics["stale_results_ignored"] += 1
            self.dispatcher.pump()
            return
        job, _node = entry
        instance = self.instances.get(job.instance_id)
        if instance is None or instance.terminal:
            self.dispatcher.pump()
            return
        if not job.task_path.endswith("#comp"):
            state = instance.find_state(job.task_path)
            if (state is None or state.status != DISPATCHED
                    or state.attempts != job.attempt):
                self.metrics["stale_results_ignored"] += 1
                self.dispatcher.pump()
                return
        self.metrics["jobs_completed"] += 1
        self.emit(instance, ev.task_completed(
            job.task_path, outputs, cost, node, self.clock()
        ))
        # The stash entry outlives the emit above so _record_lineage can
        # stamp the record's memo_key; the cache write happens only after
        # the completion is durable in the log (the cache is a cache).
        memo_key = self._memo_pending.pop(
            (job.instance_id, job.task_path, job.attempt), None
        )
        if memo_key is not None and self.memoize:
            self.store.data.memo_put(memo_key, outputs)
        self.navigator.navigate(instance)
        self._migration_review()  # a slot just freed up
        self.dispatcher.pump()

    def on_job_failed(self, job_id: str, reason: str, node: str,
                      detail: str = "", epoch: Optional[int] = None) -> None:
        if not self.up or self._fenced():
            return
        if self._stale_epoch(epoch, job_id, "failure"):
            return
        entry = self.dispatcher.job_finished(job_id)
        if entry is None:
            self.metrics["stale_results_ignored"] += 1
            self.dispatcher.pump()
            return
        job, _node = entry
        instance = self.instances.get(job.instance_id)
        if instance is None or instance.terminal:
            self.dispatcher.pump()
            return
        if not job.task_path.endswith("#comp"):
            state = instance.find_state(job.task_path)
            if (state is None or state.status != DISPATCHED
                    or state.attempts != job.attempt):
                self.metrics["stale_results_ignored"] += 1
                self.dispatcher.pump()
                return
        self.metrics["jobs_failed"] += 1
        # A failed attempt never reaches the memo cache; the retry's
        # queue_job re-derives the (identical) content key.
        self._memo_pending.pop(
            (job.instance_id, job.task_path, job.attempt), None
        )
        now = self.clock()
        if reason in ev.INFRASTRUCTURE_REASONS:
            self.obs.metrics.inc("retries_infrastructure")
        else:
            self.obs.metrics.inc("retries_program")
        self.emit(instance, ev.task_failed(
            job.task_path, reason, node, job.attempt, now,
            detail=detail,
        ))
        if (self.quarantine is not None
                and reason in ev.NODE_ATTRIBUTED_REASONS):
            self._note_node_failure(node, now)
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    # ------------------------------------------------------------------
    # Node & load reports
    # ------------------------------------------------------------------

    def on_node_down(self, node: str) -> None:
        if not self.up or self._fenced() or not self.awareness.has_node(node):
            return
        self.metrics["nodes_failed"] += 1
        orphan_ids = self.awareness.node_down(node, self.clock())
        # The dispatcher still tracks them; fail each orphaned job.
        for job_id in orphan_ids:
            entry = self.dispatcher.job_finished(job_id)
            if entry is None:
                continue
            job, _node = entry
            instance = self.instances.get(job.instance_id)
            if instance is None or instance.terminal:
                continue
            state = instance.find_state(job.task_path)
            if (job.task_path.endswith("#comp")
                    or (state is not None and state.status == DISPATCHED
                        and state.attempts == job.attempt)):
                self.emit(instance, ev.task_failed(
                    job.task_path, "node-crash", node, job.attempt,
                    self.clock(),
                ))
                self.navigator.navigate(instance)
        self.dispatcher.pump()

    def on_node_up(self, node: str, running=None) -> None:
        """A node (re)joined. ``running`` is the set of job ids its PEC
        actually has; jobs we believe are there but are not get failed —
        this covers a crash+restore that beat the failure detector."""
        if not self.up or self._fenced() or not self.awareness.has_node(node):
            return
        self._node_failures.pop(node, None)  # a fresh join resets strikes
        self.awareness.node_up(node, self.clock())
        if running is not None:
            for job_id in self.dispatcher.jobs_on_node(node):
                if job_id in running:
                    continue
                entry = self.dispatcher.job_finished(job_id)
                if entry is None:
                    continue
                job, _node = entry
                instance = self.instances.get(job.instance_id)
                if instance is None or instance.terminal:
                    continue
                state = instance.find_state(job.task_path)
                if (job.task_path.endswith("#comp")
                        or (state is not None and state.status == DISPATCHED
                            and state.attempts == job.attempt)):
                    self.emit(instance, ev.task_failed(
                        job.task_path, "node-crash", node, job.attempt,
                        self.clock(),
                    ))
                    self.navigator.navigate(instance)
        self.dispatcher.pump()

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
        self._migration_review()
        self.dispatcher.pump()

    def _migration_review(self) -> None:
        """Re-evaluate running jobs' placement. Any change — a load
        report, a completion freeing a slot, a node rejoining — can make a
        starving job migratable. At most ONE job migrates per review:
        several starving jobs chasing the same freed slot would push the
        overflow onto nodes as bad as the ones they left."""
        if self.migration is None:
            return
        for view in self.awareness.nodes():
            if view.assigned and self._consider_migration(view.name):
                return

    # ------------------------------------------------------------------
    # Epoch fencing & dispatch leases (partition safety)
    # ------------------------------------------------------------------

    def _fenced(self) -> bool:
        """Self-fence against a newer server sharing the durable store.

        A standby promotion bumps the store's epoch; the moment the old
        primary consults the store and sees a newer epoch it stands down
        (``up = False``) instead of racing the new server's writes.
        """
        durable = int(
            self.store.configuration.setting("server_epoch", self.epoch)
        )
        if durable <= self.epoch:
            return False
        self.up = False
        self.metrics["epoch_fenced"] += 1
        return True

    def _stale_epoch(self, epoch: Optional[int], job_id: str,
                     what: str) -> bool:
        """Reject a report stamped by a different epoch than ours.

        ``None``/0 means the transport is unfenced (inline environments,
        direct calls) and is accepted for compatibility.
        """
        if not epoch or epoch == self.epoch:
            return False
        self.metrics["stale_epoch_reports"] += 1
        self.dispatcher.pump()
        return True

    def enable_leases(self, base: float = 900.0, factor: float = 4.0) -> None:
        """Grant every dispatch a lease; expiry triggers safe re-dispatch.

        A dispatched job's lease lasts ``base + factor * cost_hint``
        seconds. On expiry the server probes the environment
        (``job_alive``): a job still running (or whose report is pending
        retransmission) renews; one that is gone or unreachable is
        cancelled and failed with reason ``lease-expired`` — so work lost
        to an asymmetric partition is re-dispatched even if no failure
        report ever arrives. Environments without a ``schedule`` hook
        never grant leases (nothing could ever expire them).

        The policy is persisted in the configuration space so a recovery
        (or a standby promotion) re-derives it from the durable store —
        it must not depend on the dead server's in-memory object.
        """
        self.leases = (base, factor)
        self.store.configuration.set_setting("lease_config", [base, factor])

    def enable_memoization(self) -> None:
        """Cache task results by content key; replay hits dispatch-free.

        Every queued (non-composite) task derives a content key from its
        program and resolved inputs. A cache hit completes the task
        immediately on the virtual node ``"memo"`` at zero cost; a miss
        dispatches normally and stores the result when it completes. Like
        the lease policy, the switch is persisted (``memo_config``) so a
        recovered server keeps memoizing.
        """
        self.memoize = True
        self.store.configuration.set_setting("memo_config", [])

    def _grant_lease(self, job: JobRequest, node: str) -> None:
        schedule = getattr(self.environment, "schedule", None)
        if schedule is None:
            return
        holder = self._lease_keys.get(job.key)
        if holder is not None and holder in self._leases:
            # Two live leases for one task occurrence would mean two
            # concurrent legitimate executions — the invariant chaos checks.
            self.metrics["lease_double_grants"] += 1
        base, factor = self.leases
        duration = base + factor * max(0.0, job.cost_hint)
        event = schedule(duration, self._lease_expired, job.job_id,
                         job.attempt, label=f"lease:{job.job_id}")
        self._leases[job.job_id] = {
            "key": job.key, "attempt": job.attempt, "node": node,
            "duration": duration, "event": event,
        }
        self._lease_keys[job.key] = job.job_id
        self.metrics["leases_granted"] += 1

    def _release_lease(self, job_id: str) -> None:
        lease = self._leases.pop(job_id, None)
        if lease is None:
            return
        if self._lease_keys.get(lease["key"]) == job_id:
            del self._lease_keys[lease["key"]]
        event = lease.get("event")
        if event is not None and hasattr(event, "cancel"):
            event.cancel()

    def _lease_expired(self, job_id: str, attempt: int) -> None:
        lease = self._leases.get(job_id)
        if lease is None or lease["attempt"] != attempt:
            return
        if not self.up or self._fenced():
            return
        entry = self.dispatcher.in_flight.get(job_id)
        if entry is None:
            self._release_lease(job_id)
            return
        job, node = entry
        alive_fn = getattr(self.environment, "job_alive", None)
        if alive_fn is not None and alive_fn(node, job_id):
            # Still making progress (or waiting out a report retry):
            # renew for another term.
            self.metrics["leases_renewed"] += 1
            schedule = getattr(self.environment, "schedule", None)
            lease["event"] = schedule(
                lease["duration"], self._lease_expired, job_id, attempt,
                label=f"lease:{job_id}",
            )
            return
        # The holder is gone or unreachable. The environment-side kill
        # models lease-based self-termination (the PEC abandons work whose
        # lease it can no longer renew), so re-dispatching is safe even if
        # the old node is still alive behind a partition.
        self.metrics["leases_expired"] += 1
        if self.environment is not None:
            self.environment.cancel(job_id)
        self.on_job_failed(job_id, "lease-expired", node,
                           detail="dispatch lease expired without renewal",
                           epoch=self.epoch)

    # ------------------------------------------------------------------
    # Node quarantine (graceful degradation / failure masking)
    # ------------------------------------------------------------------

    def enable_quarantine(self, threshold: int = 3, window: float = 900.0,
                          probe_after: float = 600.0) -> None:
        """Blacklist misbehaving nodes instead of feeding them work.

        A node that accumulates ``threshold`` node-attributed job failures
        (see :data:`~repro.core.engine.events.NODE_ATTRIBUTED_REASONS`)
        within ``window`` seconds is excluded from placement until a probe
        — scheduled ``probe_after`` seconds later through the environment's
        ``schedule_probe`` — reports it healthy. Environments without probe
        support never quarantine: excluding a node with no way back would
        shrink the cluster permanently.

        Like the lease policy, the configuration is persisted so recovery
        re-derives it from the durable store.
        """
        self.quarantine = (threshold, window, probe_after)
        self.store.configuration.set_setting(
            "quarantine_config", [threshold, window, probe_after]
        )

    def _note_node_failure(self, node: str, now: float) -> None:
        if not self.awareness.has_node(node):
            return
        view = self.awareness.node(node)
        if not view.up or view.quarantined:
            return
        probe = getattr(self.environment, "schedule_probe", None)
        if probe is None:
            return
        threshold, window, probe_after = self.quarantine
        history = self._node_failures.setdefault(node, [])
        history.append(now)
        while history and history[0] <= now - window:
            history.pop(0)
        if len(history) < threshold:
            return
        history.clear()
        self.awareness.quarantine(node)
        self.obs.metrics.inc("nodes_quarantined")
        probe(node, probe_after)

    def on_probe_result(self, node: str, ok: bool = True) -> None:
        """A quarantine probe reported back; success re-admits the node."""
        if not self.up or not self.awareness.has_node(node):
            return
        if not ok:
            probe = getattr(self.environment, "schedule_probe", None)
            if probe is not None and self.quarantine is not None:
                probe(node, self.quarantine[2])
            return
        self._node_failures.pop(node, None)
        self.awareness.release_quarantine(node)
        self.dispatcher.pump()

    # ------------------------------------------------------------------
    # Kill-and-restart load balancing (Section 5.4 discussion / ablation)
    # ------------------------------------------------------------------

    def enable_migration(self, min_rate: float = 0.25,
                         improvement: float = 2.0,
                         max_attempts: int = 6) -> None:
        """Enable the kill-and-restart strategy the paper discusses:
        "one strategy would be to have BioOpera abort the affected TEU and
        re-schedule it elsewhere". A job whose estimated progress rate
        drops below ``min_rate`` is aborted and re-queued if some other
        node offers at least ``improvement`` times its current rate.
        Whether this helps depends on the external users' utilization
        pattern — which is exactly what the migration ablation measures.
        ``max_attempts`` bounds the total dispatches a task may accumulate
        before migration leaves it alone (each restart discards progress,
        so unbounded chasing of a moving load pattern would livelock).
        Persisted like the other three policies, so a recovered server
        keeps balancing.
        """
        self.migration = (min_rate, improvement, max_attempts)
        self.store.configuration.set_setting(
            "migration_config", [min_rate, improvement, max_attempts]
        )

    def _estimated_rate(self, view, extra_jobs: int = 0) -> float:
        jobs = view.assigned_count + extra_jobs
        if jobs <= 0:
            jobs = 1
        free = max(0.0, view.cpus - view.external_load)
        return view.speed * min(1.0, free / jobs)

    def _consider_migration(self, node: str) -> bool:
        """Migrate at most one starving job off ``node``; True if it did."""
        min_rate, improvement, max_attempts = self.migration
        view = self.awareness.node(node)
        if not view.up or view.assigned_count == 0:
            return False
        current_rate = self._estimated_rate(view)
        if current_rate >= min_rate:
            return False
        for job_id in self.dispatcher.jobs_on_node(node):
            entry = self.dispatcher.in_flight.get(job_id)
            if entry is None:
                continue
            job, _node = entry
            candidates = [
                c for c in self.awareness.candidates(job.placement)
                if c.name != node
            ]
            best = max(
                (self._estimated_rate(c, extra_jobs=1) for c in candidates),
                default=0.0,
            )
            if best < improvement * max(current_rate, 1e-9):
                continue
            instance = self.instances.get(job.instance_id)
            if instance is None or instance.terminal:
                continue
            state = instance.find_state(job.task_path)
            if (state is None or state.status != DISPATCHED
                    or state.attempts != job.attempt):
                continue
            if state.attempts >= max_attempts:
                continue  # stop chasing a moving load pattern
            self.dispatcher.job_finished(job_id)
            if self.environment is not None:
                self.environment.cancel(job_id)
            self.obs.metrics.inc("jobs_migrated")
            self.emit(instance, ev.task_failed(
                job.task_path, "migrated", node, job.attempt, self.clock(),
                detail="kill-and-restart load balancing",
            ))
            self.navigator.navigate(instance)
            return True
        return False

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
        if self.environment is not None:
            for job_id in self.dispatcher.inflight_for_instance(instance.id):
                self.environment.cancel(job_id)
        # Releases both queued jobs and the in-flight jobs' node slots.
        self.dispatcher.drop_instance(instance.id)
        self.emit(instance, ev.instance_aborted(reason, self.clock()))
        self.dispatcher.pump()

    def change_parameter(self, instance_id: str, name: str, value: Any,
                         scope: str = "") -> None:
        """Operator edit of a whiteboard item (paper, Section 3.4)."""
        instance = self.instance(instance_id)
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
                self.dispatcher.job_finished(job_id)
                if self.environment is not None:
                    self.environment.cancel(job_id)
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
        [processes] are automatically resumed." An instance whose durable
        meta says it :func:`~repro.core.engine.recovery.ended` is only
        entered in :attr:`instances`; whoever reads it first replays it.

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
            # would be stamped before events that precede them. Times
            # never decrease within a log, so its last event has it.
            for instance_id in store.instances.instance_ids():
                count = store.instances.event_count(instance_id)
                for _seq, event in store.instances.events_from(
                        instance_id, max(0, count - 1)):
                    time = event.get("time")
                    if isinstance(time, (int, float)):
                        server.clock.t = max(server.clock.t, float(time))
        for setting, enable in cls.POLICY_SETTINGS:
            config = store.configuration.setting(setting)
            if config is not None:
                getattr(server, enable)(*config)
        for node, config in store.configuration.nodes().items():
            if not server.awareness.has_node(node):
                server.awareness.register(
                    node, config["cpus"], config.get("speed", 1.0),
                    tuple(config.get("tags", ())),
                )
        # Instances staged by an interrupted shard migration import are
        # NOT this shard's to run yet: the migrator's resume either
        # activates them (source committed) or deletes them (source
        # still owns the instance). Replaying them here would double-run
        # their in-flight work.
        staged = {
            name.split("/", 1)[1]
            for name, record in
            store.configuration.settings("migrate_in/").items()
            if isinstance(record, dict) and record.get("phase") == "staged"
        }
        for instance_id in store.instances.instance_ids():
            if instance_id in staged:
                continue
            # Crash during recovery replay itself: the next recovery must
            # start over from the same durable log and still succeed.
            fire("recovery.replay", instance=instance_id)
            if ended(store, instance_id):
                server.instances.defer(instance_id)
                continue
            instance = server._replay(instance_id)
            if instance.terminal:
                continue  # stale meta: the terminal event made it, alone
            server.emit_batch(instance, [
                ev.task_failed(
                    state.path, "server-recovery", state.node,
                    state.attempts, server.clock(),
                )
                for state in instance.dispatched_states()
            ])
        live = server.instances.loaded()
        server.obs.metrics.inc("recovery.instances_replayed", len(live))
        server.obs.metrics.inc("recovery.instances_deferred",
                               len(server.instances) - len(live))
        for instance in live:
            if not instance.terminal:
                server.navigator.navigate(instance)
        server.dispatcher.pump()
        return server

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
        if self.environment is not None:
            for job_id in self.dispatcher.inflight_for_instance(instance_id):
                self.environment.cancel(job_id)
        self.dispatcher.drop_instance(instance_id)

    def complete_migration(self, instance_id: str) -> None:
        """Forget an instance whose migration committed (log tombstoned).

        Replays nothing: a deferred instance leaves as it came.
        """
        self.migrating.discard(instance_id)
        if instance_id in self.instances:
            del self.instances[instance_id]

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
        self.emit_batch(instance, [
            ev.task_failed(state.path, "shard-migration", state.node,
                           state.attempts, self.clock())
            for state in instance.dispatched_states()
        ])
        self.navigator.navigate(instance)
        self.dispatcher.pump()

    def adopt_epoch(self, epoch: int) -> None:
        """Raise this server's fencing epoch to at least ``epoch``.

        Imported events carry the source shard's epochs; the per-log
        epoch-monotonicity invariant requires everything this server
        emits afterwards to be stamped no lower.
        """
        if int(epoch) > self.epoch:
            self.epoch = int(epoch)
            self.store.configuration.set_setting("server_epoch", self.epoch)

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
            self.emit_batch(instance, [
                ev.task_failed(state.path, "shard-migration", state.node,
                               state.attempts, self.clock())
                for state in instance.dispatched_states()
            ])
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
