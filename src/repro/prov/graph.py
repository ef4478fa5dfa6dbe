"""Provenance graph: activities + datasets over the recorded derivations.

Promotes the flat :class:`~repro.store.lineage.LineageRecord` stream (one
per ``task_completed`` event) into the queryable ancestry/derivation
graph the paper's conclusion promises
("lineage tracking is done automatically and all dependencies are
persistently recorded"): every record becomes one *activity* node (the
task attempt that ran, identified by its span) joined to the *entity*
nodes it used and generated. On top of the dataset-level queries of
:class:`~repro.store.lineage.LineageGraph` this adds:

* derivation paths (the chain of records connecting two datasets);
* a structural diff between two runs of the same template (instance
  prefixes are stripped, so homologous tasks line up);
* W3C PROV-JSON export/import (``entity`` / ``activity`` / ``used`` /
  ``wasGeneratedBy`` / ``wasDerivedFrom``), round-trippable.

The graph's canonical serialization (:meth:`ProvenanceGraph.dump`) is the
byte-identity anchor of the ``prov-equivalence`` chaos invariant: the
incrementally maintained view must dump exactly what a rebuild from the
durable event logs dumps.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import StoreError
from ..store.lineage import LineageGraph, LineageRecord

#: PROV-JSON namespace prefix for every identifier this module mints.
PROV_PREFIX = "repro"
PROV_URI = "urn:repro:"


def _qual(local: str) -> str:
    """Qualify a local name into the repro PROV namespace."""
    return f"{PROV_PREFIX}:{local}"


def _empty_document() -> Dict[str, Any]:
    """A PROV-JSON document with every section present and empty."""
    return {
        "prefix": {PROV_PREFIX: PROV_URI},
        "entity": {},
        "activity": {},
        "used": {},
        "wasGeneratedBy": {},
        "wasDerivedFrom": {},
    }


def fresh_sections(document: Dict[str, Any]) -> Dict[str, Any]:
    """A kept document as handed to a caller: the top level and each
    section are new dicts, the attribute dicts inside them are shared."""
    return {name: dict(section) for name, section in document.items()}


def relative_dataset(dataset: str, instance_id: str) -> str:
    """Strip ``instance_id``'s prefix off a dataset name.

    Dataset names are instance-scoped (``<iid>/<task path>`` or
    ``<iid>/wb:<name>``); diffing two runs only makes sense on the
    instance-relative part.
    """
    prefix = f"{instance_id}/"
    if dataset.startswith(prefix):
        return dataset[len(prefix):]
    return dataset


class ProvenanceGraph:
    """Activity+entity graph folded from lineage records.

    Folding is deterministic in exactly the way :class:`LineageGraph` is
    (records grouped by instance id, a re-derivation replacing the old
    record), so any two folds of the same logs — live, after a failover
    or a rescan — produce byte-identical :meth:`dump` output.
    """

    def __init__(self, records: Iterable[LineageRecord] = ()):
        self.lineage = LineageGraph()
        #: (instance_id, task path) -> latest record for that task.
        self.activities: Dict[Tuple[str, str], LineageRecord] = {}
        #: instance_id -> task paths recorded, in first-recorded order.
        self._runs: Dict[str, List[str]] = {}
        #: bumped by every :meth:`add`: with the graph object itself it
        #: names one state of the graph (the plane's merged export is
        #: kept per such state).
        self.mutations = 0
        #: the store-wide PROV-JSON document; derived, never persisted.
        #: ``None`` until first asked for and after every :meth:`add`.
        self._document: Optional[Dict[str, Any]] = None
        for record in records:
            self.add(record)

    def add(self, record: LineageRecord) -> None:
        """Fold one derivation; a re-derivation replaces the old one."""
        self.lineage.add(record)
        self.mutations += 1
        self._document = None
        key = (record.instance_id, record.task)
        if key not in self.activities:
            self._runs.setdefault(record.instance_id, []).append(record.task)
        self.activities[key] = record

    def drop_instance(self, instance_id: str) -> None:
        """Forget every record of one instance (it moved away)."""
        self.lineage.discard_instance(instance_id)
        self.mutations += 1
        self._document = None
        for task in self._runs.pop(instance_id, ()):
            del self.activities[(instance_id, task)]

    def __len__(self) -> int:
        return len(self.lineage)

    def __repr__(self) -> str:
        return f"ProvenanceGraph({self.lineage.records!r})"

    # -- canonical serialization (the equivalence anchor) -----------------

    def dump(self) -> Dict[str, Any]:
        """Canonical codec-safe snapshot: the records in graph order."""
        return {"records": [r.to_dict() for r in self.lineage.records]}

    # -- queries ------------------------------------------------------------

    def instance_ids(self) -> List[str]:
        """Sorted ids of every instance with recorded derivations."""
        return sorted(self._runs)

    def run_records(self, instance_id: str) -> List[LineageRecord]:
        """The instance's task records in first-recorded order."""
        return [
            self.activities[(instance_id, task)]
            for task in self._runs.get(instance_id, ())
        ]

    def run_steps(self, instance_id: str) -> List[Dict[str, Any]]:
        """The instance's derivation steps as operator-facing rows."""
        return [self._step(r) for r in self.run_records(instance_id)]

    def ancestry(self, dataset: str) -> List[Dict[str, Any]]:
        """The derivation steps ``dataset`` (transitively) came from.

        Rows are emitted in dependency order (furthest ancestor first)
        and include the queried dataset's own producer, if derived.
        """
        order: List[str] = []
        seen = set()

        def visit(current: str) -> None:
            """Post-order walk: ancestors land before their consumers."""
            if current in seen:
                return
            seen.add(current)
            record = self.lineage._producers.get(current)
            if record is None:
                return
            for inp in record.inputs:
                visit(inp)
            order.append(current)

        visit(dataset)
        rows = []
        emitted = set()
        for produced in order:
            record = self.lineage.producer(produced)
            if id(record) in emitted:
                continue
            emitted.add(id(record))
            rows.append(self._step(record))
        return rows

    def descendants(self, dataset: str) -> List[str]:
        """Sorted datasets that (transitively) depend on this one."""
        return sorted(self.lineage.descendants(dataset))

    def derivation_path(self, source: str,
                        target: str) -> List[Dict[str, Any]]:
        """The chain of derivation steps leading ``source`` → ``target``.

        Returns the shortest such chain (BFS over producer edges walked
        backwards from ``target``); raises :class:`StoreError` when no
        chain exists.
        """
        if source == target:
            return []
        parents: Dict[str, Tuple[str, LineageRecord]] = {}
        frontier = [target]
        seen = {target}
        found = False
        while frontier and not found:
            nxt: List[str] = []
            for current in frontier:
                record = self.lineage._producers.get(current)
                if record is None:
                    continue
                for inp in record.inputs:
                    if inp in seen:
                        continue
                    seen.add(inp)
                    parents[inp] = (current, record)
                    if inp == source:
                        found = True
                        break
                    nxt.append(inp)
                if found:
                    break
            frontier = nxt
        if not found:
            raise StoreError(
                f"no derivation path from {source!r} to {target!r}"
            )
        steps: List[Dict[str, Any]] = []
        current = source
        while current != target:
            current, record = parents[current]
            steps.append(self._step(record))
        return steps

    def _step(self, record: LineageRecord) -> Dict[str, Any]:
        """One derivation step as an operator-facing row."""
        return {
            "task": record.task,
            "instance_id": record.instance_id,
            "program": record.program,
            "inputs": list(record.inputs),
            "outputs": list(record.outputs),
            "span": record.span,
            "timestamp": record.timestamp,
        }

    # -- run diff -----------------------------------------------------------

    def diff_runs(self, run_a: str, run_b: str,
                  other: Optional["ProvenanceGraph"] = None
                  ) -> Dict[str, Any]:
        """Structural diff between two runs (``other`` may hold run_b).

        Tasks are matched by path; a matched task is *changed* when its
        program or its instance-relative input set differs. ``only_a`` /
        ``only_b`` list unmatched task paths. Both runs must have
        recorded derivations (a typed error beats a silently empty
        diff).
        """
        graph_b = other if other is not None else self
        records_a = {r.task: r for r in self.run_records(run_a)}
        records_b = {r.task: r for r in graph_b.run_records(run_b)}
        if not records_a:
            raise StoreError(f"no provenance recorded for run {run_a!r}")
        if not records_b:
            raise StoreError(f"no provenance recorded for run {run_b!r}")
        changed = []
        same = []
        for task in sorted(set(records_a) & set(records_b)):
            rec_a, rec_b = records_a[task], records_b[task]
            reasons = []
            if rec_a.program != rec_b.program:
                reasons.append(
                    f"program {rec_a.program!r} -> {rec_b.program!r}"
                )
            rel_a = [relative_dataset(i, run_a) for i in rec_a.inputs]
            rel_b = [relative_dataset(i, run_b) for i in rec_b.inputs]
            if rel_a != rel_b:
                reasons.append(f"inputs {rel_a} -> {rel_b}")
            if reasons:
                changed.append({"task": task, "reasons": reasons})
            else:
                same.append(task)
        return {
            "run_a": run_a,
            "run_b": run_b,
            "only_a": sorted(set(records_a) - set(records_b)),
            "only_b": sorted(set(records_b) - set(records_a)),
            "changed": changed,
            "unchanged": same,
        }

    # -- W3C PROV-JSON ------------------------------------------------------

    def to_prov_json(self,
                     instance_id: Optional[str] = None) -> Dict[str, Any]:
        """Export as a W3C PROV-JSON document.

        Datasets become ``entity`` nodes, task attempts (spans) become
        ``activity`` nodes, with ``used`` / ``wasGeneratedBy`` edges and
        a derived ``wasDerivedFrom`` closure (output ← each input).
        ``instance_id`` restricts the export to one run's records.
        Edge identifiers are indexed so :meth:`from_prov_json` can
        reconstruct the original record order exactly.

        The store-wide document is kept beside the graph and served
        until the next :meth:`add`, which drops it. The returned
        document and its sections are the caller's to edit; the
        attribute dicts inside the sections are shared with every other
        export of the same graph state and must be treated as read-only.
        """
        records = self.lineage.records
        if instance_id is not None:
            return self._build_document(
                r for r in records if r.instance_id == instance_id)
        if self._document is None:
            self._document = self._build_document(records)
        return fresh_sections(self._document)

    @staticmethod
    def _build_document(records: Iterable[LineageRecord]
                        ) -> Dict[str, Any]:
        """One pass over ``records`` into a new PROV-JSON document."""
        document = _empty_document()
        for index, record in enumerate(records):
            activity = _qual(record.span or f"{record.instance_id}:"
                             f"{record.task}")
            document["activity"][activity] = {
                f"{PROV_PREFIX}:index": index,
                f"{PROV_PREFIX}:instance": record.instance_id,
                f"{PROV_PREFIX}:task": record.task,
                f"{PROV_PREFIX}:program": record.program,
                f"{PROV_PREFIX}:program_version": record.program_version,
                f"{PROV_PREFIX}:parameters": [
                    [k, v] for k, v in record.parameters
                ],
                f"{PROV_PREFIX}:timestamp": record.timestamp,
                f"{PROV_PREFIX}:memo_key": record.memo_key,
            }
            for pos, dataset in enumerate(record.inputs):
                entity = _qual(dataset)
                document["entity"].setdefault(entity, {})
                document["used"][f"_:u{index}.{pos}"] = {
                    "prov:activity": activity,
                    "prov:entity": entity,
                }
            for pos, dataset in enumerate(record.outputs):
                entity = _qual(dataset)
                document["entity"].setdefault(
                    entity, {})[f"{PROV_PREFIX}:instance"] = (
                        record.instance_id)
                document["wasGeneratedBy"][f"_:g{index}.{pos}"] = {
                    "prov:entity": entity,
                    "prov:activity": activity,
                }
                for ipos, source in enumerate(record.inputs):
                    document["wasDerivedFrom"][f"_:d{index}.{pos}.{ipos}"] = {
                        "prov:generatedEntity": entity,
                        "prov:usedEntity": _qual(source),
                    }
        return document

    @classmethod
    def from_prov_json(cls, document: Dict[str, Any]) -> "ProvenanceGraph":
        """Rebuild a graph from :meth:`to_prov_json` output."""
        strip = len(f"{PROV_PREFIX}:")

        def local(name: str) -> str:
            """Strip the document prefix, rejecting foreign identifiers."""
            if not name.startswith(f"{PROV_PREFIX}:"):
                raise StoreError(f"foreign PROV identifier {name!r}")
            return name[strip:]

        used: Dict[str, List[Tuple[int, str]]] = {}
        for edge in (document.get("used") or {}).values():
            activity = edge["prov:activity"]
            pos = len(used.setdefault(activity, []))
            used[activity].append((pos, local(edge["prov:entity"])))
        generated: Dict[str, List[Tuple[int, str]]] = {}
        for edge in (document.get("wasGeneratedBy") or {}).values():
            activity = edge["prov:activity"]
            pos = len(generated.setdefault(activity, []))
            generated[activity].append((pos, local(edge["prov:entity"])))
        activities = sorted(
            (document.get("activity") or {}).items(),
            key=lambda item: item[1].get(f"{PROV_PREFIX}:index", 0),
        )
        graph = cls()
        for name, attrs in activities:
            graph.add(LineageRecord(
                outputs=tuple(d for _, d in sorted(generated.get(name, ()))),
                inputs=tuple(d for _, d in sorted(used.get(name, ()))),
                program=attrs.get(f"{PROV_PREFIX}:program", ""),
                program_version=attrs.get(
                    f"{PROV_PREFIX}:program_version", "1"),
                parameters=tuple(
                    (k, v) for k, v in attrs.get(
                        f"{PROV_PREFIX}:parameters", ())
                ),
                instance_id=attrs.get(f"{PROV_PREFIX}:instance", ""),
                task=attrs.get(f"{PROV_PREFIX}:task", ""),
                timestamp=attrs.get(f"{PROV_PREFIX}:timestamp", 0.0),
                span=local(name),
                memo_key=attrs.get(f"{PROV_PREFIX}:memo_key", ""),
            ))
        return graph


def merge_prov_documents(documents: Iterable[Dict[str, Any]]
                         ) -> Dict[str, Any]:
    """Union several PROV-JSON documents (the cross-shard export path).

    Identifiers embed globally unique instance ids (shard prefixes), so
    the union is a plain key merge — but edge indices must be re-spaced
    so activity record order stays reconstructable after the merge.
    """
    merged = _empty_document()
    activities, entities = merged["activity"], merged["entity"]
    index_key = f"{PROV_PREFIX}:index"
    base = 0
    for document in documents:
        highest = -1
        for name, attrs in (document.get("activity") or {}).items():
            index = int(attrs.get(index_key, 0))
            if index > highest:
                highest = index
            activities[name] = {**attrs, index_key: base + index}
        for name, attrs in (document.get("entity") or {}).items():
            entities.setdefault(name, {}).update(attrs)
        suffix = f"@{base}"
        for section in ("used", "wasGeneratedBy", "wasDerivedFrom"):
            edges = merged[section]
            for edge_id, edge in (document.get(section) or {}).items():
                edges[edge_id + suffix] = dict(edge)
        base += highest + 1
    return merged
