"""Process instances: event-sourced runtime state.

A :class:`ProcessInstance` holds the complete runtime state of one running
process — frames (execution scopes), task states, whiteboards — and changes
state **only** through :meth:`ProcessInstance.apply`, whose input events are
exactly what the engine persists to the instance space. Recovery is
therefore replay: feeding the stored event log back through ``apply``
rebuilds the instance bit-for-bit ("during execution, a process instance is
persistent both in terms of the data and the state of the execution... this
allows BioOpera to resume execution after failures occur without losing
already completed work", paper Section 3.2).

Scope/paths: a *frame* is one executing graph. The root frame has path
``""``; a block or parallel task ``X`` at path ``p`` owns frame ``p + "X/"``;
parallel body instances are tasks named ``Body[k]`` inside the parallel
frame; a subprocess task owns a frame with its own whiteboard.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ...errors import EngineError, InvalidStateError
from ..model.data import Binding, UNDEFINED, Whiteboard
from ..model.process import ProcessTemplate, TaskGraph
from ..model.tasks import Activity, Block, ParallelTask, Task
from . import events as ev

# Task statuses
INACTIVE = "inactive"
DISPATCHED = "dispatched"   # activity sent to a node
EXPANDED = "expanded"       # structured task whose frame is executing
COMPLETED = "completed"
FAILED = "failed"
SKIPPED = "skipped"

TERMINAL = (COMPLETED, SKIPPED)

# Instance statuses
CREATED = "created"
RUNNING = "running"
SUSPENDED = "suspended"
INSTANCE_COMPLETED = "completed"
ABORTED = "aborted"
#: the instance statuses nothing leads out of.
ENDED = (INSTANCE_COMPLETED, ABORTED)

#: Events outside the per-task lifecycle: rare, and free to invalidate any
#: parked task's reason for waiting, so they put the whole instance back
#: on the navigation agenda instead of naming what they touched.
_REOPENING = frozenset({
    ev.TASK_RESET, ev.WHITEBOARD_SET, ev.SPHERE_COMPENSATING,
    ev.INSTANCE_SUSPENDED, ev.INSTANCE_RESUMED,
})

#: Resolves (template_name, version) -> ProcessTemplate; version None = latest.
TemplateResolver = Callable[[str, Optional[int]], ProcessTemplate]


class TaskState:
    """Mutable runtime record of one task occurrence."""

    __slots__ = (
        "name", "path", "status", "attempts", "program_failures",
        "outputs", "node", "program", "failure_reason", "alternative",
        "dispatched_at", "finished_at", "cost", "element", "index",
    )

    def __init__(self, name: str, path: str, element: Any = None,
                 index: int = 0):
        self.name = name
        self.path = path
        self.index = index           # position in its frame's task order
        self.status = INACTIVE
        self.attempts = 0            # total dispatches
        self.program_failures = 0    # failures that count against retries
        self.outputs: Optional[Dict[str, Any]] = None
        self.node = ""
        self.program = ""
        self.failure_reason = ""
        self.alternative = False     # running its alternative program
        self.dispatched_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cost = 0.0              # accumulated CPU seconds (all attempts)
        self.element = element       # parallel element value, if any

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    def __repr__(self):
        return f"<TaskState {self.path!r} {self.status}>"


class Frame:
    """One executing graph scope."""

    __slots__ = (
        "path", "kind", "owner_path", "graph", "whiteboard_path",
        "template", "states", "elements", "parallel_task", "serial", "open",
    )

    def __init__(self, path: str, kind: str, owner_path: str,
                 graph: TaskGraph, whiteboard_path: str,
                 template: Optional[ProcessTemplate] = None,
                 elements: Optional[List[Any]] = None,
                 parallel_task: Optional[ParallelTask] = None):
        self.path = path
        self.kind = kind  # "root" | "block" | "parallel" | "subprocess"
        self.owner_path = owner_path
        self.graph = graph
        self.whiteboard_path = whiteboard_path
        self.template = template
        self.elements = elements
        self.parallel_task = parallel_task
        self.states: Dict[str, TaskState] = {
            name: TaskState(name, f"{path}{name}", index=index)
            for index, name in enumerate(graph.tasks)
        }
        if elements is not None and parallel_task is not None:
            for index, element in enumerate(elements):
                body_name = f"{parallel_task.body.name}[{index}]"
                state = TaskState(body_name, f"{path}{body_name}",
                                  element=element, index=len(self.states))
                self.states[body_name] = state
        #: creation order within the instance, stamped when the instance
        #: adopts the frame.
        self.serial = 0
        #: states not yet COMPLETED or SKIPPED, kept exact by
        #: :meth:`ProcessInstance._set_status`.
        self.open = len(self.states)

    def task_model(self, name: str) -> Task:
        """The template task behind a runtime task name."""
        if self.kind == "parallel" and "[" in name:
            return self.parallel_task.body
        task = self.graph.tasks.get(name)
        if task is None:
            raise EngineError(f"no task {name!r} in frame {self.path!r}")
        return task

    def complete(self) -> bool:
        return not self.open

    def __repr__(self):
        return f"<Frame {self.path!r} ({self.kind})>"


class _FrameScope:
    """Binding/condition resolution context for one frame."""

    def __init__(self, instance: "ProcessInstance", frame: Frame,
                 overrides: Optional[Dict[str, Any]] = None):
        self.instance = instance
        self.frame = frame
        self.overrides = overrides or {}

    def resolve(self, binding: Binding) -> Any:
        if binding.kind == "const":
            return binding.value
        if binding.kind == "whiteboard":
            if binding.name in self.overrides:
                return self.overrides[binding.name]
            board = self.instance.whiteboard_for(self.frame)
            return board.get(binding.name)
        # task output in the same frame
        state = self.frame.states.get(binding.name)
        if state is None or state.status != COMPLETED or state.outputs is None:
            return UNDEFINED
        return state.outputs.get(binding.field, UNDEFINED)


class ProcessInstance:
    """Event-sourced runtime state of one process execution."""

    def __init__(self, instance_id: str, resolver: TemplateResolver):
        self.id = instance_id
        self.resolver = resolver
        self.status = CREATED
        self.template: Optional[ProcessTemplate] = None
        self.template_version: int = 0
        self.frames: Dict[str, Frame] = {}
        self.whiteboards: Dict[str, Whiteboard] = {}
        self.outputs: Dict[str, Any] = {}
        self.abort_reason = ""
        self.created_at: float = 0.0
        self.finished_at: Optional[float] = None
        #: pending sphere compensations: list of {"task","program","status"}
        self.compensations: List[Dict[str, Any]] = []
        self.compensating_sphere = ""
        self.compensation_failed_task = ""
        #: OCR event signals observed by this instance (raised internally
        #: on task completion or injected from outside).
        self.signals: set = set()
        self.event_count = 0
        #: Navigation agenda: the tasks an event may have made actionable,
        #: as a heap of ``(frame.serial, state.index, frame, task name)`` —
        #: the order a scan of every frame would reach them in. Only
        #: :meth:`apply` and :meth:`wake_path` put tasks on; only
        #: :meth:`agenda_pass` takes them off. Derived state: replay
        #: rebuilds it, nothing of it is persisted.
        self.agenda: List[tuple] = []
        self._on_agenda: set = set()   # (serial, index) of every entry
        #: task path, or ``"signal <name>"`` -> the (frame, state) pairs
        #: parked until that task finishes / that signal is raised.
        self.watchers: Dict[str, List[Tuple[Frame, TaskState]]] = {}
        #: heap of ``(-len(frame.path), frame.serial, frame)``: frames whose
        #: last open task finished and whose owner may now complete.
        self.drained: List[tuple] = []
        self._frames_created = 0
        #: task status -> how many states of the live frames have it
        #: (never 0); kept by :meth:`_recount` where statuses are created,
        #: changed and dropped, read by :meth:`progress`.
        self._status_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Event application (the ONLY state mutator)
    # ------------------------------------------------------------------

    def apply(self, event: Dict[str, Any]) -> None:
        handler = getattr(self, f"_on_{event['type']}", None)
        if handler is None:
            raise EngineError(f"unknown event type {event['type']!r}")
        handler(event)
        self.event_count += 1
        if event["type"] in _REOPENING:
            self.reopen()

    def replay(self, events: Iterator[Dict[str, Any]]) -> "ProcessInstance":
        for event in events:
            self.apply(event)
        return self

    # -- instance lifecycle -------------------------------------------------

    def _on_instance_created(self, event):
        template = self.resolver(event["template_name"], event["version"])
        self.template = template
        self.template_version = event["version"]
        self.created_at = event["time"]
        board = Whiteboard()
        for param in template.parameters:
            if param.name in event["inputs"]:
                board.set(param.name, event["inputs"][param.name])
            elif param.default is not None:
                board.set(param.name, param.default)
            elif not param.optional:
                raise InvalidStateError(
                    f"instance {self.id}: required input {param.name!r} missing"
                )
        self.whiteboards[""] = board
        self._open_frame(Frame(
            path="", kind="root", owner_path="", graph=template.graph,
            whiteboard_path="", template=template,
        ))
        self.status = CREATED

    def _on_instance_started(self, event):
        self.status = RUNNING

    def _on_instance_suspended(self, event):
        self.status = SUSPENDED

    def _on_instance_resumed(self, event):
        self.status = RUNNING

    def _on_instance_completed(self, event):
        self.status = INSTANCE_COMPLETED
        self.outputs = event["outputs"]
        self.finished_at = event["time"]

    def _on_instance_aborted(self, event):
        self.status = ABORTED
        self.abort_reason = event["reason"]
        self.finished_at = event["time"]

    # -- task lifecycle -------------------------------------------------------

    def _locate(self, path: str) -> Tuple[Frame, TaskState]:
        head, sep, name = path.rpartition("/")
        frame = self.frames.get(head + sep)
        state = frame.states.get(name) if frame is not None else None
        if state is None:
            raise EngineError(f"instance {self.id}: unknown task path {path!r}")
        return frame, state

    def _set_status(self, frame: Frame, state: TaskState,
                    status: str) -> None:
        """The one place a task status changes.

        Keeps ``frame.open`` exact, and records what the change can have
        made actionable: a failed task needs its handler run; a finished
        one releases whoever watched it and, if it was the frame's last
        open task, puts the frame up for completion.
        """
        frame.open += (status not in TERMINAL) - (state.status not in TERMINAL)
        self._recount(state.status, -1)
        self._recount(status, 1)
        state.status = status
        if status == FAILED:
            self.wake(frame, state)
        elif status in TERMINAL:
            self._notify(state.path)
            if not frame.open:
                self._drain(frame)

    def _recount(self, status: str, delta: int) -> None:
        """Move the histogram by ``delta`` tasks of ``status``; a status
        nobody has leaves it, so :meth:`progress` is a plain copy."""
        count = self._status_counts.get(status, 0) + delta
        if count:
            self._status_counts[status] = count
        else:
            self._status_counts.pop(status, None)

    def _on_task_dispatched(self, event):
        if event["path"].endswith("#comp"):
            for entry in self.compensations:
                if entry["task"] == event["path"][: -len("#comp")]:
                    entry["status"] = "dispatched"
            return
        frame, state = self._locate(event["path"])
        self._set_status(frame, state, DISPATCHED)
        state.attempts = event["attempt"]
        state.node = event["node"]
        state.program = event["program"]
        state.dispatched_at = event["time"]

    def _on_task_completed(self, event):
        path = event["path"]
        if path.endswith("#comp"):
            self._comp_done(path, success=True)
            return
        frame, state = self._locate(path)
        self._set_status(frame, state, COMPLETED)
        state.outputs = event["outputs"]
        state.finished_at = event["time"]
        state.cost += event.get("cost", 0.0)
        task = frame.task_model(state.name)
        board = self.whiteboard_for(frame)
        for field, wb_name in task.output_mappings:
            value = event["outputs"].get(field, UNDEFINED)
            if value is not UNDEFINED:
                board.set(wb_name, value)

    def _on_task_failed(self, event):
        path = event["path"]
        if path.endswith("#comp"):
            self._comp_done(path, success=False)
            return
        frame, state = self._locate(path)
        self._set_status(frame, state, FAILED)
        state.failure_reason = event["reason"]
        state.finished_at = event["time"]
        if event["reason"] not in ev.INFRASTRUCTURE_REASONS:
            state.program_failures += 1

    def _on_task_skipped(self, event):
        self._set_status(*self._locate(event["path"]), SKIPPED)

    def _on_task_reset(self, event):
        path = event["path"]
        frame, state = self._locate(path)
        # Resetting a task in a finished instance reopens the instance
        # (the paper's "the process was re-started and BioOpera immediately
        # re-scheduled the TEUs").
        if self.status in (INSTANCE_COMPLETED, ABORTED):
            self.status = RUNNING
            self.outputs = {}
            self.abort_reason = ""
            self.finished_at = None
        # Drop any frame the task had expanded into.
        prefix = f"{path}/"
        for frame_path in [p for p in self.frames if p.startswith(prefix)
                           or p == prefix]:
            for dropped in self.frames.pop(frame_path).states.values():
                self._recount(dropped.status, -1)
            self.whiteboards.pop(frame_path, None)
        fresh = TaskState(state.name, state.path, element=state.element,
                          index=state.index)
        # Accounting and failure budgets survive the reset so structured-task
        # retries cannot loop forever on a deterministic failure.
        fresh.cost = state.cost
        fresh.attempts = state.attempts
        fresh.program_failures = state.program_failures
        frame.states[state.name] = fresh
        frame.open += state.terminal
        self._recount(state.status, -1)
        self._recount(INACTIVE, 1)

    # -- structure expansion -----------------------------------------------------

    def _open_frame(self, frame: Frame) -> None:
        """Adopt a new frame: every task in it is up for consideration."""
        self._frames_created += 1
        frame.serial = self._frames_created
        self.frames[frame.path] = frame
        self._recount(INACTIVE, len(frame.states))
        for state in frame.states.values():
            self.wake(frame, state)
        if not frame.open:
            self._drain(frame)

    def _on_block_started(self, event):
        path = event["path"]
        frame, state = self._locate(path)
        self._set_status(frame, state, EXPANDED)
        task = frame.task_model(state.name)
        if not isinstance(task, Block):
            raise EngineError(f"{path!r} is not a block")
        self._open_frame(Frame(
            path=f"{path}/", kind="block", owner_path=path,
            graph=task.graph, whiteboard_path=frame.whiteboard_path,
        ))

    def _on_parallel_expanded(self, event):
        path = event["path"]
        frame, state = self._locate(path)
        self._set_status(frame, state, EXPANDED)
        task = frame.task_model(state.name)
        if not isinstance(task, ParallelTask):
            raise EngineError(f"{path!r} is not a parallel task")
        self._open_frame(Frame(
            path=f"{path}/", kind="parallel", owner_path=path,
            graph=TaskGraph(tasks=[], connectors=[]),
            whiteboard_path=frame.whiteboard_path,
            elements=event["elements"], parallel_task=task,
        ))

    def _on_subprocess_started(self, event):
        path = event["path"]
        frame, state = self._locate(path)
        self._set_status(frame, state, EXPANDED)
        template = self.resolver(event["template_name"], event["version"])
        board = Whiteboard()
        for param in template.parameters:
            if param.name in event["inputs"]:
                board.set(param.name, event["inputs"][param.name])
            elif param.default is not None:
                board.set(param.name, param.default)
            elif not param.optional:
                raise InvalidStateError(
                    f"subprocess {path!r}: required input {param.name!r} "
                    f"missing"
                )
        frame_path = f"{path}/"
        self.whiteboards[frame_path] = board
        self._open_frame(Frame(
            path=frame_path, kind="subprocess", owner_path=path,
            graph=template.graph, whiteboard_path=frame_path,
            template=template,
        ))

    # -- data & compensation --------------------------------------------------------

    def _on_whiteboard_set(self, event):
        board = self.whiteboards.get(event["scope"])
        if board is None:
            raise EngineError(
                f"no whiteboard at scope {event['scope']!r}"
            )
        board.set(event["name"], event["value"])

    def _on_sphere_compensating(self, event):
        self.compensating_sphere = event["sphere"]
        self.compensation_failed_task = event.get("failed_task", "")
        sphere = None
        for candidate in (self.template.spheres if self.template else []):
            if candidate.name == event["sphere"]:
                sphere = candidate
        if sphere is None:
            raise EngineError(f"unknown sphere {event['sphere']!r}")
        self.compensations = [
            {
                "task": task,
                "program": sphere.compensation_program(task),
                "status": "pending",
            }
            for task in event["tasks"]
        ]

    def _on_signal_raised(self, event):
        self.signals.add(event["name"])
        self._notify(f"signal {event['name']}")

    def _comp_done(self, comp_path: str, success: bool) -> None:
        task_path = comp_path[: -len("#comp")]
        for entry in self.compensations:
            if entry["task"] == task_path:
                entry["status"] = "done" if success else "failed"
                return
        raise EngineError(f"no pending compensation for {task_path!r}")

    # ------------------------------------------------------------------
    # Navigation agenda (DESIGN.md section 5, "Navigation cost")
    # ------------------------------------------------------------------

    def wake(self, frame: Frame, state: TaskState) -> None:
        """Put a task up for the navigator's consideration."""
        key = (frame.serial, state.index)
        if key not in self._on_agenda:
            self._on_agenda.add(key)
            heapq.heappush(self.agenda, key + (frame, state.name))

    def wake_path(self, task_path: str) -> None:
        """:meth:`wake` by path; a path not (or no longer) in the instance
        is a no-op."""
        try:
            self.wake(*self._locate(task_path))
        except EngineError:
            pass

    def watch(self, frame: Frame, state: TaskState, key: str) -> None:
        """Park a task until ``key`` — the path of a task it waits to see
        finished, or ``"signal <name>"`` — comes about."""
        self.watchers.setdefault(key, []).append((frame, state))

    def _notify(self, key: str) -> None:
        for frame, state in self.watchers.pop(key, ()):
            self.wake(frame, state)

    def _drain(self, frame: Frame) -> None:
        # A frame's path extends its owner's, so longest-first is bottom-up.
        heapq.heappush(self.drained, (-len(frame.path), frame.serial, frame))

    def reopen(self) -> None:
        """Forget every parking reason: all startable and failed tasks go
        back on the agenda."""
        self.watchers.clear()
        for frame in self.frames.values():
            for state in frame.states.values():
                if state.status in (INACTIVE, FAILED):
                    self.wake(frame, state)

    def agenda_pass(self) -> Iterator[Tuple[Frame, TaskState]]:
        """Take tasks off the agenda in the order one scan over every
        frame (in creation order) and every task in it (in task order)
        would reach them.

        A task woken while the pass runs is yielded by this pass only if
        such a scan would still have reached it: it lies ahead of the last
        task yielded, in a frame that existed when the pass began.
        Anything else stays on the agenda for the next pass.
        """
        newest = self._frames_created
        cursor = (0, -1)
        behind = []
        agenda = self.agenda
        try:
            while agenda and agenda[0][0] <= newest:
                entry = heapq.heappop(agenda)
                key = entry[:2]
                if key <= cursor:
                    behind.append(entry)
                    continue
                cursor = key
                self._on_agenda.discard(key)
                frame = entry[2]
                if self.frames.get(frame.path) is frame:
                    yield frame, frame.states[entry[3]]
        finally:
            for entry in behind:
                heapq.heappush(agenda, entry)

    def drained_frames(self) -> Iterator[Frame]:
        """Take the complete frames up for completion, deepest first and
        in creation order within a depth; a frame that drains while the
        caller completes a deeper one is yielded in its turn."""
        while self.drained:
            frame = heapq.heappop(self.drained)[2]
            if self.frames.get(frame.path) is frame and frame.complete():
                yield frame

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def frame_of(self, task_path: str) -> Frame:
        """The frame containing the task at ``task_path``."""
        if "/" in task_path:
            frame_path = task_path.rsplit("/", 1)[0] + "/"
        else:
            frame_path = ""
        frame = self.frames.get(frame_path)
        if frame is None:
            raise EngineError(
                f"instance {self.id}: no frame {frame_path!r} for task "
                f"{task_path!r}"
            )
        return frame

    def find_state(self, task_path: str) -> Optional[TaskState]:
        if task_path.endswith("#comp"):
            task_path = task_path[: -len("#comp")]
        try:
            frame = self.frame_of(task_path)
        except EngineError:
            return None
        name = task_path.rsplit("/", 1)[-1]
        return frame.states.get(name)

    def whiteboard_for(self, frame: Frame) -> Whiteboard:
        return self.whiteboards[frame.whiteboard_path]

    def scope(self, frame: Frame,
              overrides: Optional[Dict[str, Any]] = None) -> _FrameScope:
        return _FrameScope(self, frame, overrides)

    def resolve_binding(self, frame: Frame, binding: Binding,
                        overrides: Optional[Dict[str, Any]] = None) -> Any:
        return self.scope(frame, overrides).resolve(binding)

    def resolve_inputs(self, frame: Frame, task: Task, state: TaskState,
                       ) -> Dict[str, Any]:
        """Evaluate a task's input bindings (plus static parameters)."""
        values: Dict[str, Any] = {}
        if isinstance(task, Activity):
            values.update(task.parameters)
        # Parallel-body tasks: bindings evaluate in the parent frame of the
        # parallel task, with the element injected under element_param.
        if frame.kind == "parallel" and "[" in state.name:
            parent_frame = self.frame_of(frame.owner_path)
            scope = self.scope(parent_frame)
            values[frame.parallel_task.element_param] = state.element
        else:
            scope = self.scope(frame)
        for param, binding in sorted(task.inputs.items()):
            value = scope.resolve(binding)
            if value is not UNDEFINED:
                values[param] = value
        return values

    def iter_states(self) -> Iterator[TaskState]:
        for frame in self.frames.values():
            yield from frame.states.values()

    def dispatched_states(self) -> List[TaskState]:
        return [s for s in self.iter_states() if s.status == DISPATCHED]

    def activity_count(self) -> int:
        """Completed activity executions (the |A| of the paper's metrics)."""
        count = 0
        for frame in self.frames.values():
            for state in frame.states.values():
                task = frame.task_model(state.name)
                if isinstance(task, Activity) and state.status == COMPLETED:
                    count += 1
        return count

    def total_cpu_seconds(self) -> float:
        """CPU(pi) = sum of activity CPU over all attempts."""
        return sum(state.cost for state in self.iter_states())

    def progress(self) -> Dict[str, int]:
        """Task-status histogram over all frames (monitoring view)."""
        return dict(self._status_counts)

    @property
    def terminal(self) -> bool:
        return self.status in ENDED

    def __repr__(self):
        return f"<ProcessInstance {self.id!r} {self.status}>"
