"""Process templates: annotated directed graphs of tasks.

"A process is an annotated directed graph where the nodes represent tasks
and the arcs represent the control/data flow between these tasks" (paper,
Section 2). A :class:`ProcessTemplate` owns a root :class:`TaskGraph`,
declared input parameters, declared outputs (bindings evaluated at
completion), and spheres of atomicity. Templates are immutable once stored;
they serialize to plain dicts for the template space and round-trip through
the OCR text format.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ...errors import ModelError, ValidationError
from .connectors import ControlConnector, DataConnector
from .data import Binding, ProcessParameter
from .failure import Sphere
from .tasks import Activity, Block, ParallelTask, SubprocessTask, Task


class TaskGraph:
    """A set of tasks plus the control connectors among them."""

    def __init__(self, tasks: Optional[List[Task]] = None,
                 connectors: Optional[List[ControlConnector]] = None):
        self.tasks: Dict[str, Task] = {}
        self.connectors: List[ControlConnector] = []
        for task in tasks or []:
            self.add_task(task)
        for connector in connectors or []:
            self.add_connector(connector)

    # -- construction ---------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        if task.name in self.tasks:
            raise ModelError(f"duplicate task name {task.name!r}")
        self.tasks[task.name] = task
        return task

    def add_connector(self, connector: ControlConnector) -> ControlConnector:
        self.connectors.append(connector)
        return connector

    def connect(self, source: str, target: str, condition=None) -> ControlConnector:
        from .conditions import TRUE, parse_condition

        if condition is None:
            expr = TRUE
        elif isinstance(condition, str):
            expr = parse_condition(condition)
        else:
            expr = condition
        return self.add_connector(ControlConnector(source, target, expr))

    # -- queries --------------------------------------------------------------

    def incoming(self, task_name: str) -> List[ControlConnector]:
        return [c for c in self.connectors if c.target == task_name]

    def outgoing(self, task_name: str) -> List[ControlConnector]:
        return [c for c in self.connectors if c.source == task_name]

    def start_tasks(self) -> List[str]:
        """Tasks with no incoming control connector, in insertion order."""
        targets = {c.target for c in self.connectors}
        return [name for name in self.tasks if name not in targets]

    def topological_order(self) -> List[str]:
        """Kahn topological sort; raises on control cycles."""
        indegree = {name: 0 for name in self.tasks}
        for connector in self.connectors:
            if connector.target in indegree:
                indegree[connector.target] += 1
        frontier = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            for connector in self.outgoing(current):
                if connector.target not in indegree:
                    continue  # dangling endpoint; validation reports it
                indegree[connector.target] -= 1
                if indegree[connector.target] == 0:
                    frontier.append(connector.target)
        if len(order) != len(self.tasks):
            cyclic = sorted(set(self.tasks) - set(order))
            raise ModelError(f"control-flow cycle through tasks {cyclic}")
        return order

    def data_connectors(self) -> List[DataConnector]:
        """Derive data-flow edges from task input bindings."""
        edges: List[DataConnector] = []
        for task in self.tasks.values():
            for param, binding in sorted(task.inputs.items()):
                if binding.kind == "task":
                    edges.append(DataConnector(
                        "task", binding.name, binding.field, task.name, param
                    ))
                elif binding.kind == "whiteboard":
                    edges.append(DataConnector(
                        "whiteboard", binding.name, "", task.name, param
                    ))
        return edges

    def walk_tasks(self) -> Iterator[Tuple[str, Task]]:
        """All tasks, recursing into blocks and parallel bodies.

        Yields (path, task) where path segments are joined with '/'.
        """
        def recurse(graph: "TaskGraph", prefix: str):
            for name, task in graph.tasks.items():
                path = f"{prefix}{name}"
                yield path, task
                if isinstance(task, Block):
                    yield from recurse(task.graph, f"{path}/")
                elif isinstance(task, ParallelTask):
                    yield f"{path}/{task.body.name}", task.body

        yield from recurse(self, "")

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tasks": [task.to_dict() for task in self.tasks.values()],
            "connectors": [c.to_dict() for c in self.connectors],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskGraph":
        return cls(
            tasks=[Task.from_dict(t) for t in data.get("tasks", [])],
            connectors=[
                ControlConnector.from_dict(c)
                for c in data.get("connectors", [])
            ],
        )


class ProcessTemplate:
    """A complete, validated process definition."""

    def __init__(
        self,
        name: str,
        graph: Optional[TaskGraph] = None,
        parameters: Optional[List[ProcessParameter]] = None,
        outputs: Optional[Dict[str, Binding]] = None,
        spheres: Optional[List[Sphere]] = None,
        description: str = "",
    ):
        if not name.isidentifier():
            raise ModelError(f"process name {name!r} is not an identifier")
        self.name = name
        self.graph = graph or TaskGraph()
        self.parameters = list(parameters or [])
        self.outputs = dict(outputs or {})
        self.spheres = list(spheres or [])
        self.description = description

    # -- validation -----------------------------------------------------------

    def validate(self) -> List[str]:
        """Collect structural problems (empty list means valid)."""
        problems: List[str] = []
        self._validate_graph(self.graph, "", problems, top_level=True)
        param_names = [p.name for p in self.parameters]
        if len(set(param_names)) != len(param_names):
            problems.append("duplicate process parameter names")
        known_wb = self._known_whiteboard_names()
        for out_name, binding in sorted(self.outputs.items()):
            self._check_binding(
                binding, self.graph, known_wb,
                f"process output {out_name!r}", problems,
            )
        for sphere in self.spheres:
            for member in sphere.tasks:
                if member not in self.graph.tasks:
                    problems.append(
                        f"sphere {sphere.name!r} references unknown task "
                        f"{member!r}"
                    )
        return problems

    def ensure_valid(self) -> "ProcessTemplate":
        problems = self.validate()
        if problems:
            raise ValidationError(problems)
        return self

    def _known_whiteboard_names(self) -> Set[str]:
        names = {p.name for p in self.parameters}

        def collect(graph: TaskGraph):
            for task in graph.tasks.values():
                for _, wb_name in task.output_mappings:
                    names.add(wb_name)
                if isinstance(task, Block):
                    collect(task.graph)

        collect(self.graph)
        return names

    def _validate_graph(self, graph: TaskGraph, prefix: str,
                        problems: List[str], top_level: bool) -> None:
        label = prefix or "root"
        if not graph.tasks:
            problems.append(f"{label}: graph has no tasks")
            return
        for connector in graph.connectors:
            for endpoint in (connector.source, connector.target):
                if endpoint not in graph.tasks:
                    problems.append(
                        f"{label}: connector references unknown task "
                        f"{endpoint!r}"
                    )
        try:
            graph.topological_order()
        except ModelError as exc:
            problems.append(f"{label}: {exc}")
        known_wb = self._known_whiteboard_names()
        for task in graph.tasks.values():
            where = f"{label}: task {task.name!r}"
            for param, binding in sorted(task.inputs.items()):
                self._check_binding(
                    binding, graph, known_wb,
                    f"{where} input {param!r}", problems,
                )
            for connector in graph.incoming(task.name):
                for ref in connector.condition.references():
                    self._check_binding(
                        ref, graph, known_wb,
                        f"{label}: condition on {connector.source}->"
                        f"{connector.target}", problems,
                    )
            if isinstance(task, ParallelTask):
                self._check_binding(
                    task.list_input, graph, known_wb,
                    f"{where} list input", problems,
                )
            if isinstance(task, Block):
                self._validate_graph(
                    task.graph, f"{label}/{task.name}", problems, False
                )

    @staticmethod
    def _check_binding(binding: Binding, graph: TaskGraph,
                       known_wb: Set[str], where: str,
                       problems: List[str]) -> None:
        if binding.kind == "task" and binding.name not in graph.tasks:
            problems.append(
                f"{where}: binding references unknown task {binding.name!r}"
            )
        elif binding.kind == "whiteboard" and binding.name not in known_wb:
            problems.append(
                f"{where}: binding references whiteboard item "
                f"{binding.name!r} that no parameter or mapping provides"
            )

    # -- structure queries ------------------------------------------------------

    def required_parameters(self) -> List[str]:
        return [p.name for p in self.parameters if not p.optional]

    def activity_programs(self) -> Set[str]:
        """All external program bindings the template references."""
        programs: Set[str] = set()
        for _, task in self.graph.walk_tasks():
            if isinstance(task, Activity):
                programs.add(task.program)
        return programs

    def subprocess_names(self) -> Set[str]:
        names: Set[str] = set()
        for _, task in self.graph.walk_tasks():
            if isinstance(task, SubprocessTask):
                names.add(task.template_name)
        return names

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [p.to_dict() for p in self.parameters],
            "outputs": {
                k: b.to_dict() for k, b in sorted(self.outputs.items())
            },
            "spheres": [s.to_dict() for s in self.spheres],
            "graph": self.graph.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProcessTemplate":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            parameters=[
                ProcessParameter.from_dict(p)
                for p in data.get("parameters", [])
            ],
            outputs={
                k: Binding.from_dict(b)
                for k, b in data.get("outputs", {}).items()
            },
            spheres=[Sphere.from_dict(s) for s in data.get("spheres", [])],
            graph=TaskGraph.from_dict(data["graph"]),
        )

    def __repr__(self):
        return (
            f"<ProcessTemplate {self.name!r}: {len(self.graph.tasks)} tasks>"
        )
