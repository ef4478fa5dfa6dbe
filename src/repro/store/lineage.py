"""Lineage (provenance) tracking and recomputation queries.

The paper's conclusion highlights that "lineage tracking is done
automatically and all dependencies are persistently recorded. This makes it
possible for the system to recompute processes as data inputs or algorithms
change." A :class:`LineageRecord` is written whenever an activity completes:
it names the datasets read, the dataset(s) produced, the program (and
version) that ran, and the parameters used.

:class:`LineageGraph` answers the queries that make the tower of
information maintainable: where did this dataset come from, what depends on
it, and — when an input or an algorithm changes — exactly which derived
datasets must be recomputed, in dependency order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Set, Tuple

from ..errors import StoreError


@dataclass(frozen=True)
class LineageRecord:
    """One derivation step: ``inputs --program(params)--> outputs``."""

    outputs: Tuple[str, ...]
    inputs: Tuple[str, ...]
    program: str
    program_version: str = "1"
    parameters: Tuple[Tuple[str, Any], ...] = ()
    instance_id: str = ""
    task: str = ""
    timestamp: float = 0.0
    #: task-span id (``instance:path:attempt``) joining this derivation to
    #: the trace of the attempt that produced it.
    span: str = ""
    #: content key of the producing execution in the store's memo cache
    #: (empty when the server ran without memoization) — smart rerun uses
    #: it to invalidate cached results for operator-forced task reruns.
    memo_key: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a codec-friendly plain dict."""
        return {
            "outputs": list(self.outputs),
            "inputs": list(self.inputs),
            "program": self.program,
            "program_version": self.program_version,
            "parameters": [[k, v] for k, v in self.parameters],
            "instance_id": self.instance_id,
            "task": self.task,
            "timestamp": self.timestamp,
            "span": self.span,
            "memo_key": self.memo_key,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LineageRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            outputs=tuple(data["outputs"]),
            inputs=tuple(data["inputs"]),
            program=data["program"],
            program_version=data.get("program_version", "1"),
            parameters=tuple((k, v) for k, v in data.get("parameters", [])),
            instance_id=data.get("instance_id", ""),
            task=data.get("task", ""),
            timestamp=data.get("timestamp", 0.0),
            span=data.get("span", ""),
            memo_key=data.get("memo_key", ""),
        )


_instance_of = attrgetter("instance_id")


class LineageGraph:
    """Dependency graph over datasets built from lineage records.

    :attr:`records` is kept grouped by instance id, in add order within
    one instance: records of different instances never replace each
    other (dataset names are instance-scoped), so any interleaving of
    the same per-instance sequences gives the same graph.
    """

    def __init__(self, records: Iterable[LineageRecord] = ()):
        self.records: List[LineageRecord] = []
        self._producers: Dict[str, LineageRecord] = {}
        self._consumers: Dict[str, List[LineageRecord]] = {}
        for record in records:
            self.add(record)

    def add(self, record: LineageRecord) -> None:
        """Insert a derivation; re-deriving a dataset replaces the old record."""
        for output in record.outputs:
            existing = self._producers.get(output)
            if (existing is not None and existing != record
                    and existing in self.records):
                # Re-derivation of the same dataset replaces the old record
                # (the paper's "recompute with slightly different
                # parameters"). The membership guard keeps a multi-output
                # replacement from being removed once per shared output.
                self.records.remove(existing)
                for inp in existing.inputs:
                    self._consumers[inp].remove(existing)
            self._producers[output] = record
        insort(self.records, record, key=_instance_of)
        for inp in record.inputs:
            self._consumers.setdefault(inp, []).append(record)

    def discard_instance(self, instance_id: str) -> None:
        """Remove every record of one instance (a moved instance's old
        shard forgets it)."""
        low = bisect_left(self.records, instance_id, key=_instance_of)
        high = bisect_right(self.records, instance_id, key=_instance_of)
        for record in self.records[low:high]:
            for output in record.outputs:
                if self._producers.get(output) is record:
                    del self._producers[output]
            for inp in record.inputs:
                self._consumers[inp].remove(record)
        del self.records[low:high]

    # -- queries ------------------------------------------------------------

    def producer(self, dataset: str) -> LineageRecord:
        """The record that produced ``dataset`` (raises if underived)."""
        record = self._producers.get(dataset)
        if record is None:
            raise StoreError(f"no lineage record produces {dataset!r}")
        return record

    def is_derived(self, dataset: str) -> bool:
        """True if some lineage record lists ``dataset`` as an output."""
        return dataset in self._producers

    def ancestors(self, dataset: str) -> Set[str]:
        """All datasets this one (transitively) derives from."""
        seen: Set[str] = set()
        frontier = [dataset]
        while frontier:
            current = frontier.pop()
            record = self._producers.get(current)
            if record is None:
                continue
            for inp in record.inputs:
                if inp not in seen:
                    seen.add(inp)
                    frontier.append(inp)
        return seen

    def descendants(self, dataset: str) -> Set[str]:
        """All datasets that (transitively) depend on this one."""
        seen: Set[str] = set()
        frontier = [dataset]
        while frontier:
            current = frontier.pop()
            for record in self._consumers.get(current, []):
                for output in record.outputs:
                    if output not in seen:
                        seen.add(output)
                        frontier.append(output)
        return seen

    def invalidated_by(self, changed: Iterable[str]) -> Set[str]:
        """Datasets that must be recomputed if ``changed`` inputs change."""
        result: Set[str] = set()
        for dataset in changed:
            result |= self.descendants(dataset)
        return result

    def invalidated_by_program(self, program: str) -> Set[str]:
        """Datasets to recompute when an algorithm changes (any version)."""
        direct = {
            output
            for record in self.records
            if record.program == program
            for output in record.outputs
        }
        result = set(direct)
        for dataset in direct:
            result |= self.descendants(dataset)
        return result

    def recompute_order(self, stale: Iterable[str]) -> List[str]:
        """Topological order in which stale datasets should be rebuilt."""
        stale_set = set(stale)
        order: List[str] = []
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(dataset: str) -> None:
            """Post-order DFS respecting producer dependencies."""
            if dataset in done or dataset not in stale_set:
                return
            if dataset in visiting:
                raise StoreError(f"lineage cycle through {dataset!r}")
            visiting.add(dataset)
            record = self._producers.get(dataset)
            if record is not None:
                for inp in record.inputs:
                    visit(inp)
            visiting.discard(dataset)
            done.add(dataset)
            order.append(dataset)

        for dataset in sorted(stale_set):
            visit(dataset)
        return order

    def __len__(self) -> int:
        return len(self.records)
