"""Navigator: the process interpreter.

"From the instance space, process execution is controlled by the navigator.
In this sense, OCR acts as a persistent scripting language interpreted by
the navigator" (paper, Section 3.2). :meth:`Navigator.navigate` drives one
instance to a fixpoint:

1. decide readiness of inactive tasks (connector resolution, activation
   conditions, join modes, dead-path elimination);
2. expand structured tasks (blocks, parallel fan-out, late-bound
   subprocesses) and hand ready activities to the dispatcher;
3. apply failure handlers to failed tasks (retry / alternative / ignore /
   abort, with sphere compensation on the abort path);
4. detect frame completions bottom-up and complete their owner tasks,
   finishing the instance when the root frame drains.

The navigator *decides*; every state change flows through the server's
durable event emitter, so navigation after recovery resumes exactly where
the persisted state says.

Steps 1-3 consider only the instance's *agenda* — the tasks an event can
have made actionable since they were last considered — and step 4 only the
frames whose last open task just finished; both in the order a scan of the
whole instance would have reached them. A considered task that cannot act
yet leaves the agenda only when something exact will bring it back: the
source or signal it is parked on (:meth:`ProcessInstance.watch`), or the
release of its dispatcher key. DESIGN.md section 5 has the contract.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...errors import ConditionError, EngineError
from ...faults.points import fire
from ..model.data import UNDEFINED
from ..model.failure import (
    ABORT,
    ALTERNATIVE,
    DEFAULT_HANDLER,
    IGNORE,
    RETRY,
)
from ..model.tasks import Activity, Block, ParallelTask, SubprocessTask
from . import events as ev
from .instance import (
    COMPLETED, EXPANDED, FAILED, Frame, INACTIVE, ProcessInstance, RUNNING,
    SUSPENDED, TaskState,
)

_WAIT = "wait"
_READY = "ready"
_SKIP = "skip"
_ERROR = "error"


class Navigator:
    """Interprets instances on behalf of a server."""

    def __init__(self, server):
        self.server = server

    # ------------------------------------------------------------------

    def navigate(self, instance: ProcessInstance) -> None:
        if instance.terminal or instance.status not in (RUNNING, SUSPENDED):
            return
        # Crash while interpreting: navigation decisions not yet persisted
        # as events must be re-derived identically after recovery.
        fire("navigator.navigate", instance=instance.id)
        metrics = self.server.obs.metrics
        metrics.inc("navigations")
        changed = True
        while changed and not instance.terminal:
            changed = False
            if self._compensation_pending(instance):
                self._drive_compensation(instance)
                return
            changed |= self._finalize_compensation(instance)
            if instance.terminal:
                return
            considered = 0
            for frame, state in instance.agenda_pass():
                if state.status == INACTIVE:
                    considered += 1
                    changed |= self._consider_start(instance, frame, state)
                elif state.status == FAILED:
                    considered += 1
                    changed |= self._handle_failure(instance, frame, state)
                    if instance.terminal:
                        # Aborted: nothing else in this pass may act.
                        break
            if considered:
                metrics.inc("navigator_considered", considered)
            changed |= self._complete_frames(instance)
            changed |= self._maybe_complete_instance(instance)

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------

    def _readiness(self, instance: ProcessInstance, frame: Frame,
                   state: TaskState) -> Tuple[str, Optional[str], bool]:
        """Decide whether an inactive task may start.

        Returns ``(decision, watch, volatile)``. For ``_WAIT``, ``watch``
        is the one thing whose coming about can end the wait: the path of
        the first unfinished source, or ``"signal <name>"`` for the first
        missing AWAIT signal. ``volatile`` says the decision evaluated a
        condition over whiteboard items or task outputs, which any later
        completion may change without touching this task or its sources.
        """
        task = frame.task_model(state.name)
        decision, volatile = _READY, False
        # Parallel frames have no connectors: body instances start
        # unconditionally (modulo AWAIT clauses).
        incoming = frame.graph.incoming(state.name)
        if incoming:
            scope = instance.scope(frame)
            fired = 0
            for connector in incoming:
                source = frame.states[connector.source]
                if not source.terminal:
                    return _WAIT, source.path, volatile
                if source.status != COMPLETED:
                    continue
                volatile = volatile or any(
                    True for _ in connector.condition.references()
                )
                try:
                    if connector.condition.evaluate(scope):
                        fired += 1
                except ConditionError:
                    return _ERROR, None, volatile
            if task.join == "and":
                decision = _READY if fired == len(incoming) else _SKIP
            else:
                decision = _READY if fired else _SKIP
        if decision == _READY:
            # AWAIT clauses: the task waits until every signal has been
            # raised (by a sibling task, a nested task, or injected
            # externally).
            for signal in task.awaits:
                if signal not in instance.signals:
                    return _WAIT, f"signal {signal}", volatile
        return decision, None, volatile

    def _consider_start(self, instance: ProcessInstance, frame: Frame,
                        state: TaskState) -> bool:
        decision, watch, volatile = self._readiness(instance, frame, state)
        changed = decision != _WAIT and self._start(
            instance, frame, state, decision
        )
        if state.status == INACTIVE:
            # Waiting, or queued and not yet dispatched (the dispatcher
            # reports a key released without an event). A volatile
            # decision has no exact wake-up, so the task stays on the
            # agenda and is decided again on every pass.
            if volatile:
                instance.wake(frame, state)
            elif decision == _WAIT:
                instance.watch(frame, state, watch)
        return changed

    def _start(self, instance: ProcessInstance, frame: Frame,
               state: TaskState, decision: str) -> bool:
        now = self.server.clock()
        if decision == _SKIP:
            self.server.emit(instance, ev.task_skipped(state.path, now))
            return True
        if decision == _ERROR:
            self.server.emit(instance, ev.task_failed(
                state.path, "condition-error", "", state.attempts, now,
                detail="activation condition read undefined data",
            ))
            return True
        task = frame.task_model(state.name)
        if isinstance(task, Activity):
            return self._queue_activity(instance, frame, state, task)
        if isinstance(task, ParallelTask):
            return self._expand_parallel(instance, frame, state, task)
        if isinstance(task, Block):
            self.server.emit(instance, ev.block_started(state.path, now))
            return True
        if isinstance(task, SubprocessTask):
            return self._start_subprocess(instance, frame, state, task)
        raise EngineError(f"cannot start task kind {task.kind!r}")

    # ------------------------------------------------------------------
    # Task starters
    # ------------------------------------------------------------------

    def _queue_activity(self, instance, frame, state, task,
                        program: Optional[str] = None,
                        extra_inputs: Optional[Dict[str, Any]] = None) -> bool:
        if self.server.is_pending(instance.id, state.path):
            # Off the agenda until the dispatcher reports the key released.
            return False
        inputs = instance.resolve_inputs(frame, task, state)
        if extra_inputs:
            inputs.update(extra_inputs)
        placement = str(inputs.pop("placement", "") or "")
        cost_hint = float(inputs.pop("cost_hint", 0.0) or 0.0)
        self.server.queue_job(
            instance_id=instance.id,
            task_path=state.path,
            program=program or task.program,
            inputs=inputs,
            attempt=state.attempts + 1,
            placement=placement,
            cost_hint=cost_hint,
        )
        return True

    def _expand_parallel(self, instance, frame, state, task) -> bool:
        value = instance.resolve_binding(frame, task.list_input)
        if value is UNDEFINED or not isinstance(value, list):
            self.server.emit(instance, ev.task_failed(
                state.path, "condition-error", "", state.attempts,
                self.server.clock(),
                detail=(
                    f"parallel list input {task.list_input.to_text()} did "
                    f"not resolve to a list"
                ),
            ))
            return True
        self.server.emit(instance, ev.parallel_expanded(
            state.path, value, self.server.clock()
        ))
        return True

    def _start_subprocess(self, instance, frame, state, task) -> bool:
        template, version = self.server.resolve_template(
            task.template_name, task.version
        )
        # Late binding: inputs evaluated now, against the current scope.
        inputs = instance.resolve_inputs(frame, task, state)
        self.server.emit(instance, ev.subprocess_started(
            state.path, template.name, version, inputs, self.server.clock()
        ))
        return True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _handle_failure(self, instance: ProcessInstance, frame: Frame,
                        state: TaskState) -> bool:
        if self.server.is_pending(instance.id, state.path):
            # Off the agenda until the dispatcher reports the key released.
            return False
        task = frame.task_model(state.name)
        handler = task.failure or DEFAULT_HANDLER
        now = self.server.clock()
        if state.failure_reason == "condition-error":
            # A condition over undefined data is a process-design bug;
            # retrying cannot help and would bypass the activation logic.
            return self._abort_from(instance, frame, state)
        infrastructure = state.failure_reason in ev.INFRASTRUCTURE_REASONS

        if infrastructure:
            action, program = RETRY, None
        else:
            action, program = self._decide(handler, state, task)

        if action == RETRY:
            return self._retry(instance, frame, state, task, program)
        if action == IGNORE:
            self.server.emit(instance, ev.task_completed(
                state.path, {"ignored": True, "reason": state.failure_reason},
                0.0, state.node, now,
            ))
            return True
        # abort path
        return self._abort_from(instance, frame, state)

    def _decide(self, handler, state: TaskState, task):
        """Map a handler + failure history to (action, program)."""
        alternative = handler.alternative_program
        ran_alternative = bool(alternative) and state.program == alternative
        if ran_alternative:
            return ABORT, None  # the fallback itself failed
        if handler.strategy == RETRY:
            if state.program_failures <= handler.max_retries:
                return RETRY, None
            if handler.then == ALTERNATIVE:
                return RETRY, alternative
            return handler.then, None
        if handler.strategy == ALTERNATIVE:
            return RETRY, alternative
        return handler.strategy, None

    def _retry(self, instance, frame, state, task, program) -> bool:
        if isinstance(task, Activity):
            extra = None
            if program:
                handler = task.failure or DEFAULT_HANDLER
                extra = dict(handler.alternative_parameters)
            return self._queue_activity(
                instance, frame, state, task, program=program,
                extra_inputs=extra,
            )
        # Structured task: reset its frame and let readiness re-expand it.
        self.server.emit(instance, ev.task_reset(
            state.path, self.server.clock(), reason=state.failure_reason
        ))
        return True

    def _abort_from(self, instance: ProcessInstance, frame: Frame,
                    state: TaskState) -> bool:
        now = self.server.clock()
        if frame.kind != "root":
            # Propagate to the owning structured task, whose own handler
            # then decides (retry-whole-subprocess, ignore, abort, ...).
            owner = instance.find_state(frame.owner_path)
            if owner is not None and owner.status == EXPANDED:
                self.server.emit(instance, ev.task_failed(
                    frame.owner_path, "subtask-failure", "", owner.attempts,
                    now, detail=f"{state.path}: {state.failure_reason}",
                ))
                return True
            # The owner already failed or finished, and cannot expand again
            # while this frame exists: only a reset, which re-opens the
            # whole instance, makes this task actionable again.
            return False
        sphere = self._sphere_of(instance, state.name)
        if sphere is not None and not instance.compensations:
            members = self._compensatable(instance, frame, sphere)
            if members:
                self.server.emit(instance, ev.sphere_compensating(
                    sphere.name, members, state.path, now,
                ))
                return True
            if sphere.on_abort == "continue":
                self.server.emit(instance, ev.task_skipped(state.path, now))
                return True
        self.server.finalize_abort(
            instance,
            reason=f"task {state.path} failed: {state.failure_reason}",
        )
        return True

    @staticmethod
    def _sphere_of(instance: ProcessInstance, task_name: str):
        template = instance.template
        if template is None:
            return None
        for sphere in template.spheres:
            if task_name in sphere.tasks:
                return sphere
        return None

    @staticmethod
    def _compensatable(instance: ProcessInstance, frame: Frame,
                       sphere) -> List[str]:
        """Completed sphere members with undo programs, newest first."""
        done = []
        for member in sphere.tasks:
            state = frame.states.get(member)
            if (state is not None and state.status == COMPLETED
                    and sphere.compensation_program(member)):
                done.append(state)
        done.sort(key=lambda s: -(s.finished_at or 0.0))
        return [s.name for s in done]

    # ------------------------------------------------------------------
    # Compensation driving
    # ------------------------------------------------------------------

    @staticmethod
    def _compensation_pending(instance: ProcessInstance) -> bool:
        return any(
            entry["status"] in ("pending", "dispatched")
            for entry in instance.compensations
        )

    def _drive_compensation(self, instance: ProcessInstance) -> None:
        for entry in instance.compensations:
            if entry["status"] == "dispatched":
                return  # strictly sequential undo
            if entry["status"] != "pending":
                continue
            task_path = entry["task"]
            comp_path = f"{task_path}#comp"
            if self.server.is_pending(instance.id, comp_path):
                return
            state = instance.find_state(task_path)
            self.server.queue_job(
                instance_id=instance.id,
                task_path=comp_path,
                program=entry["program"],
                inputs={
                    "task": task_path,
                    "outputs": (state.outputs if state else None) or {},
                },
                attempt=1,
            )
            return

    def _finalize_compensation(self, instance: ProcessInstance) -> bool:
        if not instance.compensations:
            return False
        if self._compensation_pending(instance):
            return False
        template = instance.template
        sphere = None
        for candidate in template.spheres:
            if candidate.name == instance.compensating_sphere:
                sphere = candidate
        if sphere is None:
            raise EngineError(
                f"compensating unknown sphere "
                f"{instance.compensating_sphere!r}"
            )
        failed_path = instance.compensation_failed_task
        failed_state = instance.find_state(failed_path)
        if sphere.on_abort == "continue":
            if failed_state is not None and failed_state.status == FAILED:
                self.server.emit(instance, ev.task_skipped(
                    failed_path, self.server.clock()
                ))
                return True
            return False
        if instance.terminal:
            return False
        self.server.finalize_abort(
            instance,
            reason=(
                f"sphere {sphere.name} aborted after compensating "
                f"{len(instance.compensations)} task(s)"
            ),
        )
        return True

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------

    def _complete_frames(self, instance: ProcessInstance) -> bool:
        changed = False
        for frame in instance.drained_frames():
            if frame.kind == "root":
                continue
            owner = instance.find_state(frame.owner_path)
            if owner is None or owner.status != EXPANDED:
                continue
            outputs = self._frame_outputs(instance, frame)
            self.server.emit(instance, ev.task_completed(
                frame.owner_path, outputs, 0.0, "", self.server.clock()
            ))
            changed = True
        return changed

    def _frame_outputs(self, instance: ProcessInstance,
                       frame: Frame) -> Dict[str, Any]:
        if frame.kind == "parallel":
            results = []
            body_name = frame.parallel_task.body.name
            for index in range(len(frame.elements)):
                state = frame.states[f"{body_name}[{index}]"]
                results.append(state.outputs or {})
            return {"results": results, "count": len(results)}
        if frame.kind == "subprocess":
            scope = instance.scope(frame)
            outputs = {}
            for name, binding in sorted(frame.template.outputs.items()):
                value = scope.resolve(binding)
                outputs[name] = None if value is UNDEFINED else value
            return outputs
        return {}

    def _maybe_complete_instance(self, instance: ProcessInstance) -> bool:
        if instance.terminal:
            return False
        root = instance.frames[""]
        if not root.complete():
            return False
        scope = instance.scope(root)
        outputs = {}
        for name, binding in sorted(instance.template.outputs.items()):
            value = scope.resolve(binding)
            outputs[name] = None if value is UNDEFINED else value
        self.server.emit(instance, ev.instance_completed(
            outputs, self.server.clock()
        ))
        return True
