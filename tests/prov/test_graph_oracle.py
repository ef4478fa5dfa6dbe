"""The provenance graph's indexes against a brute-force oracle.

:class:`ProvenanceGraph` answers from a producer index, a consumer index,
per-instance record lists and a per-instance task map. The oracle keeps
none of them, only plain lists of records, and answers every query by
scanning them:

* the records not replaced (a record replaces every earlier one sharing
  an output): the dump, in instance id order, and the consumers that
  ``descendants`` walks;
* every record written: a dataset's producer, which ``ancestry`` and
  ``derivation_path`` walk, is the last record that wrote it, replaced
  or not, unless its instance was dropped since;
* the records of instances not dropped since: ``run_records`` (each
  task's latest, in first-recorded order) and ``instance_ids``.

Random sequences of ``add`` and ``drop_instance`` are checked after
every step; each sequence opens with the cases the indexes get wrong
most easily: a re-derivation within an instance, a multi-output
replacement, a cross-instance replacement and a drop after a
re-derivation. As in the engine, a task's records all write the same
outputs.
"""

import random

import pytest

from repro.errors import StoreError
from repro.prov import LineageRecord, ProvenanceGraph

INSTANCES = ("i0", "i1", "i2")
DATASETS = tuple(f"{iid}/d{k}" for iid in INSTANCES for k in range(5))


class Oracle:
    """The graph's contract, computed without an index."""

    def __init__(self):
        #: the records of instances not dropped since, in add order.
        self.history = []
        #: the records no later record replaced, in add order.
        self.alive = []
        #: every record written, in add order, and the dropped ones' ids.
        self.writes = []
        self.dropped = set()

    def add(self, record):
        self.history.append(record)
        self.writes.append(record)
        self.alive = [r for r in self.alive
                      if not set(r.outputs) & set(record.outputs)]
        self.alive.append(record)

    def drop_instance(self, instance_id):
        self.history = [r for r in self.history
                        if r.instance_id != instance_id]
        self.alive = [r for r in self.alive if r.instance_id != instance_id]
        self.dropped |= {id(r) for r in self.writes
                         if r.instance_id == instance_id}

    def producer(self, dataset):
        found = [r for r in self.writes if dataset in r.outputs]
        if not found or id(found[-1]) in self.dropped:
            return None
        return found[-1]

    def dump(self):
        ordered = sorted(self.alive, key=lambda r: r.instance_id)
        return {"records": [r.to_dict() for r in ordered]}

    def instance_ids(self):
        return sorted({r.instance_id for r in self.history})

    def run_records(self, instance_id):
        latest = {}
        for record in self.history:
            if record.instance_id == instance_id:
                latest[record.task] = record
        return list(latest.values())

    def descendants(self, dataset):
        alive = self.alive
        found, frontier = set(), [dataset]
        while frontier:
            current = frontier.pop()
            for record in alive:
                if current in record.inputs:
                    fresh = set(record.outputs) - found
                    found |= fresh
                    frontier.extend(fresh)
        return sorted(found)

    def ancestry(self, dataset):
        records, seen = [], set()

        def visit(current):
            if current in seen:
                return
            seen.add(current)
            record = self.producer(current)
            if record is None:
                return
            for inp in record.inputs:
                visit(inp)
            if all(r is not record for r in records):
                records.append(record)

        visit(dataset)
        return [r.span for r in records]

    def derivation_path(self, source, target):
        """Spans of the shortest chain ``source`` -> ``target`` (breadth
        first from ``target``, inputs in record order), or None."""
        if source == target:
            return []
        parents, frontier, seen = {}, [target], {target}
        while frontier and source not in parents:
            nxt = []
            for current in frontier:
                record = self.producer(current)
                for inp in record.inputs if record is not None else ():
                    if inp not in seen and source not in parents:
                        seen.add(inp)
                        parents[inp] = (current, record)
                        nxt.append(inp)
            frontier = nxt
        if source not in parents:
            return None
        spans, current = [], source
        while current != target:
            current, record = parents[current]
            spans.append(record.span)
        return spans


def make_record(rng, serial, instance_id, task, outputs, inputs=None):
    if inputs is None:
        inputs = rng.sample(DATASETS, rng.randint(0, 2))
    return LineageRecord(
        outputs=tuple(outputs), inputs=tuple(inputs),
        program=f"p{rng.randint(0, 2)}", instance_id=instance_id,
        task=task, timestamp=float(serial), span=f"s{serial}")


def prologue(rng):
    """The hard cases, in order, as ``(op, argument)`` steps."""
    def rec(serial, instance_id, task, outputs, inputs):
        return ("add", make_record(rng, serial, instance_id, task,
                                   outputs, inputs))

    return [
        rec(0, "i1", "A", ["i1/d0"], ["i1/d4"]),
        rec(1, "i1", "B", ["i1/d1", "i1/d2"], ["i1/d0"]),
        rec(2, "i1", "C", ["i1/d3"], ["i1/d1"]),
        # a re-derivation within an instance: A again
        rec(3, "i1", "A", ["i1/d0"], ["i1/d4", "i0/d0"]),
        # D replaces B through one output: B still produces i1/d1
        rec(4, "i1", "D", ["i1/d2"], []),
        rec(5, "i1", "E", ["i1/d3", "i1/d4"], ["i1/d2"]),
        # multi-output replacements: F replaces E through both outputs,
        # G replaces D and F at once
        rec(6, "i1", "F", ["i1/d3", "i1/d4"], []),
        rec(7, "i1", "G", ["i1/d2", "i1/d3"], ["i1/d1"]),
        # a cross-instance replacement: i2 re-derives a dataset of i1
        rec(8, "i2", "A", ["i1/d0"], ["i2/d0"]),
        rec(9, "i0", "A", ["i0/d1"], ["i1/d3"]),
        # a drop after re-derivations and replacements
        ("drop", "i1"),
        rec(10, "i1", "B", ["i1/d1", "i1/d2"], ["i1/d0"]),
    ]


def random_steps(rng, count, first_serial, outputs_of):
    """Random adds and drops; ``outputs_of`` fixes each (instance, task)'s
    outputs the first time it is drawn."""
    steps = []
    for serial in range(first_serial, first_serial + count):
        if rng.random() < 0.1:
            steps.append(("drop", rng.choice(INSTANCES)))
            continue
        instance_id = rng.choice(INSTANCES)
        task = rng.choice("ABCDEFG")
        if (instance_id, task) not in outputs_of:
            own = [d for d in DATASETS if d.startswith(instance_id + "/")]
            pool = own if rng.random() < 0.7 else DATASETS
            outputs_of[instance_id, task] = rng.sample(pool,
                                                       rng.randint(1, 2))
        steps.append(("add", make_record(rng, serial, instance_id, task,
                                         outputs_of[instance_id, task])))
    return steps


def assert_agrees(graph, oracle):
    assert graph.dump() == oracle.dump()
    assert len(graph) == len(oracle.dump()["records"])
    assert graph.instance_ids() == oracle.instance_ids()
    for instance_id in INSTANCES:
        assert graph.run_records(instance_id) == \
            oracle.run_records(instance_id)
    for dataset in DATASETS:
        assert graph.descendants(dataset) == oracle.descendants(dataset)
        assert [step["span"] for step in graph.ancestry(dataset)] == \
            oracle.ancestry(dataset)
    for source in DATASETS:
        for target in DATASETS:
            expected = oracle.derivation_path(source, target)
            if expected is None:
                with pytest.raises(StoreError):
                    graph.derivation_path(source, target)
            else:
                assert [step["span"] for step in graph.derivation_path(
                    source, target)] == expected


@pytest.mark.parametrize("seed", range(6))
def test_graph_agrees_with_the_oracle_after_every_step(seed):
    rng = random.Random(seed)
    steps = prologue(rng)
    outputs_of = {(r.instance_id, r.task): list(r.outputs)
                  for op, r in steps if op == "add"}
    steps += random_steps(rng, 60, 100, outputs_of)
    graph, oracle = ProvenanceGraph(), Oracle()
    for op, argument in steps:
        if op == "add":
            graph.add(argument)
            oracle.add(argument)
        else:
            graph.drop_instance(argument)
            oracle.drop_instance(argument)
        assert_agrees(graph, oracle)


def test_prologue_cases_happen():
    """The prologue exercises what it says."""
    graph = ProvenanceGraph()
    dumped = []
    for op, argument in prologue(random.Random(0)):
        if op == "add":
            graph.add(argument)
        else:
            graph.drop_instance(argument)
        dumped.append([r["span"] for r in graph.dump()["records"]])
    assert "s0" not in dumped[3] and "s3" in dumped[3]  # A re-derived
    assert "s1" not in dumped[4]                        # B replaced by D
    assert "s5" not in dumped[6]                        # F replaces E
    assert "s4" not in dumped[7] and "s6" not in dumped[7]  # G: D and F
    assert "s3" not in dumped[8] and "s8" in dumped[8]  # cross-instance
    assert dumped[10] == ["s9", "s8"]                   # i1 dropped
    assert dumped[11] == ["s9", "s10", "s8"]


def test_a_replaced_record_still_produces_what_no_one_rewrote():
    """D rewrites B's ``i1/d2``: B leaves the dump and the consumer
    index, and stays the producer of ``i1/d1`` until its instance is
    dropped."""
    steps = prologue(random.Random(0))
    graph = ProvenanceGraph(record for _op, record in steps[:5])
    assert "s1" not in [r["span"] for r in graph.dump()["records"]]
    assert [s["span"] for s in graph.ancestry("i1/d1")] == ["s3", "s1"]
    assert graph.descendants("i1/d0") == []
    for _op, record in steps[5:10]:
        graph.add(record)
    assert [s["span"] for s in graph.ancestry("i1/d4")] == ["s6"]
    graph.drop_instance("i1")
    assert graph.ancestry("i1/d1") == graph.ancestry("i1/d4") == []
