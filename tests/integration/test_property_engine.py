"""Property-based engine tests: random processes, random crash points."""

from hypothesis import given, settings, strategies as st

from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
    replay_instance,
)
from repro.core.model import (
    Activity, Binding, Block, FailureHandler, ParallelTask, ProcessTemplate,
    SubprocessTask, TaskGraph,
)
from repro.core.model.data import ProcessParameter
from repro.errors import ActivityFailure, InvalidStateError

from ..navigation_oracle import navigation_oracle


@st.composite
def random_dag_template(draw):
    """A random acyclic process whose activities each produce a token."""
    task_count = draw(st.integers(min_value=1, max_value=7))
    graph = TaskGraph()
    names = [f"T{i}" for i in range(task_count)]
    for name in names:
        graph.add_task(Activity(name, program="prop.token"))
    edges = []
    for i in range(task_count):
        for j in range(i + 1, task_count):
            if draw(st.booleans()):
                graph.connect(names[i], names[j])
                edges.append((names[i], names[j]))
    return ProcessTemplate(
        "RandomDag", graph=graph,
        parameters=[ProcessParameter("seed", optional=True, default=0)],
    ), edges


class TestRandomDags:
    @settings(max_examples=40, deadline=None)
    @given(random_dag_template())
    def test_every_dag_completes_and_respects_order(self, built):
        template, edges = built
        order = []

        def token(inputs, ctx):
            order.append(ctx.task_path)
            return ProgramResult({"token": ctx.task_path}, 0.1)

        registry = ProgramRegistry()
        registry.register("prop.token", token)
        server = BioOperaServer(registry=registry)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        server.define_template(template)
        instance_id = server.launch("RandomDag")
        environment.run_instance(instance_id)
        instance = server.instance(instance_id)
        assert instance.status == "completed"
        # every task ran exactly once
        assert sorted(order) == sorted(template.graph.tasks)
        # control-flow edges respected
        positions = {name: index for index, name in enumerate(order)}
        for source, target in edges:
            assert positions[source] < positions[target]

    @settings(max_examples=25, deadline=None)
    @given(random_dag_template())
    def test_replay_equals_live(self, built):
        template, _edges = built
        registry = ProgramRegistry()
        registry.register(
            "prop.token",
            lambda i, c: ProgramResult({"token": c.task_path}, 0.1),
        )
        server = BioOperaServer(registry=registry)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        server.define_template(template)
        instance_id = server.launch("RandomDag")
        environment.run_instance(instance_id)
        live = server.instance(instance_id)
        twin = replay_instance(server.store, instance_id, server._resolver)
        assert twin.status == live.status
        assert twin.progress() == live.progress()
        for state in live.iter_states():
            assert twin.find_state(state.path).outputs == state.outputs


class TestRandomCrashPoints:
    CHAIN_LENGTH = 6

    def build(self):
        graph = TaskGraph()
        previous = None
        for index in range(self.CHAIN_LENGTH):
            name = f"S{index}"
            graph.add_task(Activity(name, program="prop.step"))
            if previous is not None:
                graph.connect(previous, name)
            previous = name
        template = ProcessTemplate("Chain6", graph=graph)
        registry = ProgramRegistry()
        calls = []
        registry.register(
            "prop.step",
            lambda i, c: (calls.append(c.task_path),
                          ProgramResult({"done": c.task_path}, 1.0))[1],
        )
        server = BioOperaServer(registry=registry)
        environment = InlineEnvironment()
        server.attach_environment(environment)
        server.define_template(template)
        return server, environment, calls

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=CHAIN_LENGTH),
           st.integers(min_value=0, max_value=CHAIN_LENGTH))
    def test_crash_twice_anywhere_no_rework_of_completed_steps(
            self, first_crash, second_crash):
        server, environment, calls = self.build()
        instance_id = server.launch("Chain6")
        for _ in range(first_crash):
            environment.step()
        server.crash()
        environment2 = InlineEnvironment()
        server2 = BioOperaServer.recover(server.store, server.registry,
                                         environment=environment2)
        for _ in range(second_crash):
            environment2.step()
        server2.crash()
        environment3 = InlineEnvironment()
        server3 = BioOperaServer.recover(server2.store, server2.registry,
                                         environment=environment3)
        environment3.run_instance(instance_id)
        instance = server3.instance(instance_id)
        assert instance.status == "completed"
        # each step completed exactly once in the durable log...
        completed = [
            event["path"]
            for event in server3.store.instances.events(instance_id)
            if event["type"] == "task_completed"
        ]
        assert sorted(completed) == sorted(
            f"S{i}" for i in range(self.CHAIN_LENGTH))
        # ...and each step EXECUTED at most twice (once wasted per crash
        # at most: the in-flight victim)
        for index in range(self.CHAIN_LENGTH):
            assert calls.count(f"S{index}") <= 3


# ---------------------------------------------------------------------------
# The navigator's agenda against the whole-instance scan it replaced
# ---------------------------------------------------------------------------

#: Connector conditions over the whiteboard item ``x`` (written by MAP, with
#: values of changing type, so a condition that held can turn false or
#: start to raise while its target still waits) and over the source task's
#: own output; None is the unannotated connector.
_CONDITIONS = (
    None, None, "DEFINED(wb.x)", "NOT DEFINED(wb.x)",
    "NOT DEFINED(wb.x) OR wb.x > 0", "NOT DEFINED(wb.x) OR wb.x > 0",
    "{source}.n != 1",
)

_HANDLERS = (
    None,
    FailureHandler(strategy="retry", max_retries=1, then="abort"),
    FailureHandler(strategy="retry", max_retries=2, then="ignore"),
    FailureHandler(strategy="retry", max_retries=1, then="alternative",
                   alternative_program="prop.ok"),
    FailureHandler(strategy="alternative", alternative_program="prop.ok"),
    FailureHandler(strategy="ignore"),
    FailureHandler(strategy="abort"),
)


def _programs():
    def ok(inputs, ctx):
        # n varies in value and type with the task and attempt.
        n = (len(ctx.task_path) + ctx.attempt) % 3
        return ProgramResult({"n": "two" if n == 2 else n}, 0.1)

    def flaky(inputs, ctx):
        if ctx.attempt <= 2:
            raise ActivityFailure("program-error", "flaky")
        return ok(inputs, ctx)

    def bad(inputs, ctx):
        raise ActivityFailure("program-error", "always")

    return {"prop.ok": ok, "prop.flaky": flaky, "prop.bad": bad}


@st.composite
def _activity(draw, name):
    return Activity(
        name,
        program=draw(st.sampled_from(
            ("prop.ok", "prop.ok", "prop.ok", "prop.flaky", "prop.bad"))),
        failure=draw(st.sampled_from(_HANDLERS)),
        output_mappings=[("n", "x")] if draw(st.booleans()) else [],
        raises=["sig"] if draw(st.integers(0, 4)) == 0 else [],
        awaits=draw(st.sampled_from(([], [], [], ["sig"], ["ext"]))),
    )


@st.composite
def _graph(draw, prefix, size, structured):
    graph = TaskGraph()
    names = [f"{prefix}{i}" for i in range(size)]
    for name in names:
        kind = draw(st.sampled_from(
            ("activity", "activity", "block", "parallel", "subprocess")
            if structured else ("activity",)))
        failure = draw(st.sampled_from(_HANDLERS[:3] + _HANDLERS[5:]))
        if kind == "block":
            inner = draw(_graph(f"{name}b", draw(st.integers(1, 3)), False))
            graph.add_task(Block(name, inner, failure=failure))
        elif kind == "parallel":
            body = (SubprocessTask("Sub", "Child")
                    if draw(st.booleans())
                    else draw(_activity("Body")))
            graph.add_task(ParallelTask(
                name, Binding.whiteboard("items"), body, failure=failure))
        elif kind == "subprocess":
            graph.add_task(SubprocessTask(name, "Child", failure=failure))
        else:
            graph.add_task(draw(_activity(name)))
        graph.tasks[name].join = draw(st.sampled_from(("or", "or", "and")))
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                condition = draw(st.sampled_from(_CONDITIONS))
                if condition is not None:
                    condition = condition.format(source=names[i])
                graph.connect(names[i], names[j], condition)
    return graph


@st.composite
def structured_process(draw):
    """A random process over every construct the navigator interprets,
    its ``Child`` subprocess, and operator actions to interleave."""
    child = ProcessTemplate("Child", graph=draw(_graph("C", 2, False)),
                            parameters=[ProcessParameter("x", optional=True)])
    size = draw(st.integers(1, 5))
    root = ProcessTemplate(
        "Random", graph=draw(_graph("T", size, True)),
        parameters=[
            ProcessParameter("x", optional=True),
            ProcessParameter("items", optional=True, default=draw(
                st.lists(st.integers(0, 9), max_size=4))),
        ],
    )
    actions = draw(st.lists(st.one_of(
        st.tuples(st.just("step"), st.integers(1, 4)),
        st.tuples(st.sampled_from(
            ("suspend", "resume", "signal", "crash", "migrate"))),
        st.tuples(st.just("change"), st.sampled_from((0, 5, "five"))),
        st.tuples(st.just("restart"), st.integers(0, size - 1)),
    ), max_size=10))
    return child, root, actions


class TestAgendaMatchesScan:
    """After every navigation, one more pass of the old whole-instance
    scan finds nothing left to do (tests/navigation_oracle.py)."""

    @settings(max_examples=150, deadline=None)
    @given(structured_process())
    def test_scan_finds_nothing_the_agenda_skipped(self, built):
        child, root, actions = built
        registry = ProgramRegistry()
        for name, program in _programs().items():
            registry.register(name, program)
        with navigation_oracle() as checked:
            server = BioOperaServer(registry=registry)
            # two slots, so ready tasks queue behind running ones
            environment = InlineEnvironment(nodes={"local": 2})
            server.attach_environment(environment)
            server.define_template(child)
            server.define_template(root)
            instance_id = server.launch("Random")
            for action, *argument in actions + [("resume",), ("signal",)]:
                try:
                    if action == "step":
                        for _ in range(argument[0]):
                            environment.step()
                    elif action == "suspend":
                        server.suspend(instance_id)
                    elif action == "resume":
                        server.resume(instance_id)
                    elif action == "signal":
                        server.raise_signal(instance_id, "ext")
                    elif action == "change":
                        server.change_parameter(instance_id, "x", argument[0])
                    elif action == "restart":
                        server.restart_task(instance_id, f"T{argument[0]}")
                    elif action == "migrate":  # begun, then rolled back
                        server.quiesce_for_migration(instance_id)
                        server.abandon_migration(instance_id)
                    elif action == "crash":
                        server.crash()
                        environment = InlineEnvironment(nodes={"local": 2})
                        server = BioOperaServer.recover(
                            server.store, registry, environment=environment)
                except InvalidStateError:
                    pass  # e.g. resume of a running instance
            environment.run_until_idle()
            assert checked["navigations"] > 0
        # Nothing runnable is left behind in an instance that has not
        # finished: whatever is still open waits for a signal nobody
        # raised or sits under a failed owner. (An abort in mid-pass can
        # strand queued jobs, as it could under the scan.)
        instance = server.instance(instance_id)
        assert not server.dispatcher.in_flight
        assert instance.terminal or server.dispatcher.queue_length() == 0
        twin = replay_instance(server.store, instance_id, server._resolver)
        assert twin.progress() == instance.progress()
        for frame in instance.frames.values():
            assert frame.complete() == all(
                state.terminal for state in frame.states.values())
