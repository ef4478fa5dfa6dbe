"""Outside-in span tracer and per-layer cost ledger.

Nothing under ``src/repro`` knows about this module. For one traced unit
:class:`Tracer` replaces the entry points listed in :data:`ENTRY_POINTS`
(class attributes, and module functions on every module that imported
them) with wrappers that record a span — name, start, end, parent — and
an optional numeric value taken from the call. The wrappers pass straight
through unless a root span is open, so the harness's own checking is
never billed to a layer, and they are removed after the unit.

A layer is the part of a span name before the first dot, named after the
module under ``src/repro`` it wraps. A span's *self* time is its duration
minus the durations of its child spans, so the self times of all spans
under the root sum to the root's duration by construction; the root's own
self time is what no entry point covers (``harness.unattributed_s``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.merge import percentile

#: a wrapper that fires more often than this in one unit stops recording,
#: which bills its time to the caller's span instead.
LIFT_AFTER = 1_000_000

ROOT = "harness.unit"


# -- values read from a call: fn(args, kwargs, result) -> number -------------

def _one(_args, _kwargs, _result):
    return 1


def _result_number(_args, _kwargs, result):
    return result if isinstance(result, (int, float)) else 0


def _result_len(_args, _kwargs, result):
    return len(result)


def _arg1_len(args, _kwargs, _result):
    return len(args[1])


def _arg1_total_len(args, _kwargs, _result):
    return sum(len(payload) for payload in args[1])


def _arg2_len(args, _kwargs, _result):
    return len(args[2])


def _arg3_len(args, _kwargs, _result):
    return len(args[3])


def _records_replayed(args, _kwargs, _result):
    return args[0].last_recovery.get("records_replayed", 0)


def _is_acked_launch(args, _kwargs, result):
    return 1 if args[1].kind == "launch" and result is not None else 0


def _batch_len(args, _kwargs, _result):
    # A batch of one is handed to emit(), which counts it.
    return len(args[2]) if len(args[2]) > 1 else 0


def _refused(_args, _kwargs, result):
    return 1 if result is False else 0


#: (owner, attribute, span name, value function or None). The owner is
#: ``module:Class`` for a method and ``module`` for a function; a function
#: is replaced on every loaded module that holds it.
ENTRY_POINTS: List[Tuple[str, str, str, Optional[Callable]]] = [
    # bio + processes: every activity program runs through the registry.
    ("repro.core.engine.library:ProgramRegistry", "run", "bio.run", None),
    # core.engine.navigator / instance
    ("repro.core.engine.navigator:Navigator", "navigate",
     "navigator.navigate", None),
    ("repro.core.engine.instance:ProcessInstance", "replay",
     "instance.replay", None),
    # core.engine.server
    ("repro.core.engine.server:BioOperaServer", "launch",
     "server.launch", None),
    ("repro.core.engine.server:BioOperaServer", "on_job_completed",
     "server.completion", None),
    ("repro.core.engine.server:BioOperaServer", "on_job_failed",
     "server.completion", None),
    ("repro.core.engine.server:BioOperaServer", "on_node_down",
     "server.other", None),
    ("repro.core.engine.server:BioOperaServer", "on_node_up",
     "server.other", None),
    ("repro.core.engine.server:BioOperaServer", "on_load_report",
     "server.other", None),
    ("repro.core.engine.server:BioOperaServer", "suspend",
     "server.other", None),
    ("repro.core.engine.server:BioOperaServer", "resume",
     "server.other", None),
    ("repro.core.engine.server:BioOperaServer", "statistics",
     "server.other", None),
    ("repro.core.engine.server:BioOperaServer", "emit",
     "server.emit", _one),
    ("repro.core.engine.server:BioOperaServer", "emit_batch",
     "server.emit_batch", _batch_len),
    ("repro.core.engine.server:BioOperaServer", "recover",
     "server.recover", None),
    # core.engine.dispatcher (+ the awareness model it consults)
    ("repro.core.engine.dispatcher:Dispatcher", "enqueue",
     "dispatcher.enqueue", None),
    ("repro.core.engine.dispatcher:Dispatcher", "pump",
     "dispatcher.pump", _result_number),
    ("repro.core.engine.dispatcher:Dispatcher", "job_finished",
     "dispatcher.job_finished", None),
    # cluster.*
    ("repro.cluster.simulation:SimKernel", "step", "sim.step", None),
    ("repro.cluster.simulation:SimKernel", "run", "sim.step", None),
    ("repro.cluster.network:Network", "send", "network.send", _refused),
    ("repro.cluster.pec:PEC", "receive_job", "pec.receive_job", None),
    ("repro.cluster.pec:PEC", "job_finished", "pec.job_finished", None),
    # Not public, but the only place a retransmission is visible.
    ("repro.cluster.pec:PEC", "_report_undelivered",
     "pec.report_undelivered", None),
    ("repro.cluster.environment:SimulatedCluster", "submit",
     "env.submit", None),
    ("repro.cluster.environment:SimulatedCluster", "cancel",
     "env.cancel", None),
    ("repro.cluster.environment:SimulatedCluster", "deliver_completion",
     "env.deliver", None),
    ("repro.cluster.environment:SimulatedCluster", "deliver_failure",
     "env.deliver", None),
    ("repro.cluster.environment:SimulatedCluster", "deliver_load_report",
     "env.deliver", None),
    ("repro.cluster.environment:SimulatedCluster", "crash_server",
     "env.failover", None),
    ("repro.cluster.environment:SimulatedCluster", "recover_server",
     "env.failover", None),
    # The kernel calls these back (dispatch hand-off, job done); with the
    # node and trace bookkeeping they are the rest of cluster.*.
    ("repro.cluster.environment:SimulatedCluster", "_send_job",
     "env.callback", None),
    ("repro.cluster.environment:SimulatedCluster", "_deliver_job",
     "env.callback", None),
    ("repro.cluster.environment:SimulatedCluster", "_node_job_done",
     "env.callback", None),
    ("repro.cluster.node:SimNode", "start_job", "env.node", None),
    ("repro.cluster.node:SimNode", "kill_job", "env.node", None),
    ("repro.cluster.node:SimNode", "crash", "env.node", None),
    ("repro.cluster.node:SimNode", "restore", "env.node", None),
    ("repro.cluster.node:SimNode", "set_external_load", "env.node", None),
    ("repro.cluster.trace:ClusterTrace", "record", "env.trace", None),
    # store.codec
    ("repro.store.codec", "encode", "codec.encode", _result_len),
    ("repro.store.codec", "decode", "codec.decode", None),
    # store.wal (both backends: counts everywhere, the device only on disk)
    ("repro.store.wal:SegmentedWAL", "append", "wal.append", _arg1_len),
    ("repro.store.wal:SegmentedWAL", "append_many", "wal.append_many",
     _arg1_total_len),
    ("repro.store.wal:SegmentedWAL", "sync", "wal.sync", None),
    ("repro.store.wal:SegmentedWAL", "records_from", "wal.read", None),
    ("repro.store.wal:SegmentedWAL", "truncate_through",
     "wal.truncate", None),
    ("repro.store.wal:SegmentedWAL", "_rotate", "wal.rotate", None),
    ("repro.store.wal:MemoryWAL", "append", "wal.append", _arg1_len),
    ("repro.store.wal:MemoryWAL", "append_many", "wal.append_many",
     _arg1_total_len),
    ("repro.store.wal:MemoryWAL", "sync", "wal.sync", None),
    ("repro.store.wal:MemoryWAL", "records_from", "wal.read", None),
    ("repro.store.wal:MemoryWAL", "truncate_through", "wal.truncate", None),
    # store.kvstore + store.snapshot
    ("repro.store.kvstore:KVStore", "__init__", "kv.open",
     _records_replayed),
    ("repro.store.kvstore:KVStore", "put", "kv.commit", None),
    ("repro.store.kvstore:KVStore", "delete", "kv.commit", None),
    ("repro.store.kvstore:Transaction", "commit", "kv.commit", None),
    ("repro.store.kvstore:KVStore", "flush", "kv.flush", None),
    ("repro.store.kvstore:KVStore", "checkpoint", "kv.checkpoint", None),
    # items() scans through keys(), so counting keys() counts every scan.
    ("repro.store.kvstore:KVStore", "keys", "kv.scan", _one),
    ("repro.store.kvstore:KVStore", "items", "kv.scan", None),
    ("repro.store.snapshot:FileSnapshot", "save", "kv.snapshot_save", None),
    ("repro.store.snapshot:FileSnapshot", "load", "kv.snapshot_load", None),
    ("repro.store.snapshot:MemorySnapshot", "save", "kv.snapshot_save",
     None),
    ("repro.store.snapshot:MemorySnapshot", "load", "kv.snapshot_load",
     None),
    # store.spaces + store.lineage
    ("repro.store.spaces:InstanceSpace", "create", "spaces.append", None),
    ("repro.store.spaces:InstanceSpace", "append_event",
     "spaces.append", _one),
    ("repro.store.spaces:InstanceSpace", "append_events",
     "spaces.append", _arg2_len),
    ("repro.store.spaces:InstanceSpace", "update_meta", "spaces.meta", None),
    ("repro.store.spaces:ConfigurationSpace", "set_setting",
     "spaces.meta", None),
    ("repro.store.spaces:InstanceSpace", "events", "spaces.read", None),
    ("repro.store.spaces:InstanceSpace", "events_from", "spaces.read", None),
    ("repro.store.spaces:InstanceSpace", "instance_ids",
     "spaces.read", None),
    ("repro.store.spaces:DataSpace", "append_lineage",
     "spaces.lineage", None),
    ("repro.store.spaces:DataSpace", "lineage_records_from",
     "spaces.read", None),
    ("repro.store.spaces:DataSpace", "lineage_records", "spaces.read", None),
    # obs
    ("repro.obs.views:ViewCatalog", "apply_event", "obs.fold", _one),
    ("repro.obs.views:ViewCatalog", "apply_events", "obs.fold", _arg3_len),
    ("repro.obs.tracing:TraceCollector", "on_event", "obs.span_fold", None),
    ("repro.obs.views:ViewCatalog", "bind", "obs.catch_up", None),
    ("repro.obs.views:ViewCatalog", "catch_up", "obs.catch_up", None),
    ("repro.obs.views:ViewCatalog", "checkpoint", "obs.checkpoint", None),
    ("repro.obs.views:ViewCatalog", "in_sync", "obs.query", None),
    ("repro.obs.views:NodeUsageView", "chunk", "obs.query", None),
    ("repro.obs.views:EventHistogramView", "read", "obs.query", None),
    ("repro.obs.views:CompletionsView", "read", "obs.query", None),
    ("repro.obs.views:PathCostView", "read", "obs.query", None),
    ("repro.obs.views:RetryHotspotsView", "read", "obs.query", None),
    ("repro.obs.views:WallTimeView", "read", "obs.query", None),
    ("repro.obs.tracing:TraceCollector", "summary", "obs.query", None),
    ("repro.obs.metrics:MetricsRegistry", "snapshot", "obs.query", None),
    # prov
    ("repro.prov.view:ProvenanceView", "on_lineage", "prov.fold", None),
    ("repro.prov.view:ProvenanceView", "bind", "prov.catch_up", None),
    ("repro.prov.view:ProvenanceView", "catch_up", "prov.catch_up", None),
    ("repro.prov.view:ProvenanceView", "checkpoint",
     "prov.checkpoint", None),
    ("repro.prov.view", "provenance_graph", "prov.query", None),
    ("repro.prov.graph:ProvenanceGraph", "run_steps", "prov.query", None),
    ("repro.prov.graph:ProvenanceGraph", "ancestry", "prov.query", None),
    ("repro.prov.graph:ProvenanceGraph", "descendants", "prov.query", None),
    ("repro.prov.graph:ProvenanceGraph", "derivation_path",
     "prov.query", None),
    ("repro.prov.rerun", "plan_rerun", "prov.plan_rerun", None),
    ("repro.prov.graph:ProvenanceGraph", "to_prov_json",
     "prov.export", None),
    ("repro.prov.graph", "merge_prov_documents", "prov.export", None),
    # shard
    ("repro.shard.plane:ShardedControlPlane", "launch",
     "broker.intake", None),
    ("repro.shard.broker:ShardBroker", "submit", "broker.submit", _one),
    # The kernel calls these back; they are the broker's intake of
    # deliveries and acks although their names start with an underscore.
    ("repro.shard.broker:ShardBroker", "_deliver", "broker.deliver", None),
    ("repro.shard.broker:ShardBroker", "_service", "broker.service", None),
    ("repro.shard.broker:ShardBroker", "_ack", "broker.ack", None),
    ("repro.shard.broker:ShardBroker", "_check_redeliver",
     "broker.redeliver_check", None),
    ("repro.shard.plane:Shard", "execute", "shard.execute",
     _is_acked_launch),
    ("repro.shard.router:ShardRouter", "hash_route", "router.route", None),
    ("repro.shard.router:ShardRouter", "shard_of", "router.route", None),
    ("repro.shard.plane:ShardedControlPlane", "resolve_instance",
     "router.resolve", None),
    # The harness's own fail-over and read-mix helpers (units.py).
    ("units:DurableRecovery", "failover", "server.failover", None),
    ("units:ReadOps", "events_scan", "console.events_scan", None),
    ("units:ReadOps", "view_query", "console.view_query", None),
    ("units:ReadOps", "statistics", "console.statistics", None),
    ("units:ReadOps", "plan_rerun", "console.plan_rerun", None),
    # core.monitor.queries
    ("repro.core.monitor.queries", "node_usage", "queries.view", None),
    ("repro.core.monitor.queries", "event_histogram", "queries.view", None),
    ("repro.core.monitor.queries", "completions_over_time",
     "queries.view", None),
    ("repro.core.monitor.queries", "slowest_activities",
     "queries.view", None),
    ("repro.core.monitor.queries", "retry_hotspots", "queries.view", None),
    ("repro.core.monitor.queries", "wall_time_breakdown",
     "queries.view", None),
]

#: console methods the read mix calls; wrapped on both consoles, the
#: sharded one (what the operator calls) under ``console.<op>`` and the
#: per-shard one it fans out to under ``console.shard.<op>``.
CONSOLE_OPS = (
    "list_instances", "cluster_state", "network_health", "metrics_snapshot",
    "trace_summary", "export_prov", "instance_detail",
    "intermediate_results", "provenance_run", "provenance_ancestry",
    "provenance_descendants", "derivation_path",
)
for _op in CONSOLE_OPS:
    ENTRY_POINTS.append(("repro.shard.console:ShardedConsole", _op,
                         f"console.{_op}", None))
    ENTRY_POINTS.append(
        ("repro.core.engine.operator_console:OperatorConsole", _op,
         f"console.shard.{_op}", None))


class Tracer:
    """Records spans from wrappers it installs and removes."""

    def __init__(self, entry_points: Iterable[Tuple] = ENTRY_POINTS):
        self.entry_points = list(entry_points)
        self.active = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.values: List[float] = []
        self.lifted: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              value: Optional[Callable]) -> Callable:
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, values, stack = self.parents, self.values, self._stack
        clock = time.perf_counter
        fired = [0]

        def enter() -> int:
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0)
            stack.append(index)
            starts.append(clock())
            return index

        def over_limit() -> bool:
            fired[0] += 1
            if fired[0] == LIFT_AFTER + 1:
                tracer.lifted.append(name)
            return fired[0] > LIFT_AFTER

        if inspect.isgeneratorfunction(fn):
            # A generator does its work when resumed, inside whoever
            # iterates it: record one span per resume.
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                if not tracer.active or over_limit():
                    yield from iterator
                    return
                while tracer.active:
                    index = enter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        ends[index] = clock()
                        stack.pop()
                    yield item
                yield from iterator

            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced(*args, **kwargs):
            if not tracer.active or over_limit():
                return fn(*args, **kwargs)
            index = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if value is not None:
                values[index] = value(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every entry point with its wrapper."""
        for owner_path, attr, name, value in self.entry_points:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, raw.__func__, value))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        self._wrap(name, raw.__func__, value))
                else:
                    wrapped = self._wrap(name, raw, value)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, value)
            for loaded in list(sys.modules.values()):
                for key, bound in list(getattr(loaded, "__dict__",
                                               {}).items()):
                    if bound is original:
                        self._undo.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- the root span -------------------------------------------------------

    def trace(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span with the wrappers installed; they
        record only inside it and are removed on the way out."""
        self.install()
        try:
            return self._run_root(fn)
        finally:
            self.uninstall()

    def _run_root(self, fn: Callable[[], Any]) -> Any:
        self.names.append(ROOT)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.values.append(0)
        self._stack.append(0)
        self.active = True
        self.starts.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.ends[0] = time.perf_counter()
            self.active = False
            self._stack.clear()

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace ``X`` events (µs, one thread)."""
        origin = self.starts[0]
        with open(path, "w") as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            last = len(self.names) - 1
            quoted = {name: json.dumps(name) for name in set(self.names)}
            for index, name in enumerate(self.names):
                start = (self.starts[index] - origin) * 1e6
                duration = (self.ends[index] - self.starts[index]) * 1e6
                out.write(
                    f'{{"name":{quoted[name]},"ph":"X","pid":1,"tid":1,'
                    f'"ts":{start:.2f},"dur":{duration:.2f},'
                    f'"args":{{"parent":{self.parents[index]},'
                    f'"value":{self.values[index]}}}}}'
                    + ("\n" if index == last else ",\n"))
            out.write("]}\n")


#: metric -> span names whose *outermost* occurrences are summed whole
#: (children included): what a caller of that layer waited for.
INCLUSIVE = {
    "instance.replay_s": ("instance.replay",),
    "server.recover_s": ("server.recover", "env.failover",
                         "server.failover"),
    "wal.append_s": ("wal.append", "wal.append_many"),
    "wal.sync_s": ("wal.sync",),
    "wal.read_s": ("wal.read",),
    "kv.checkpoint_s": ("kv.checkpoint",),
    "kv.open_s": ("kv.open",),
    "kv.scan_s": ("kv.scan",),
    "spaces.read_s": ("spaces.read",),
    "obs.checkpoint_s": ("obs.checkpoint",),
    "obs.catch_up_s": ("obs.catch_up",),
    "obs.query_s": ("obs.query",),
    "prov.query_s": ("prov.query", "prov.plan_rerun"),
    "prov.export_s": ("prov.export",),
}

#: console.<op>_p50_us metric -> span whose durations it is the median of.
CONSOLE_P50 = {
    "list_instances": "console.list_instances",
    "export_prov": "console.export_prov",
    "trace_summary": "console.trace_summary",
    "metrics_snapshot": "console.metrics_snapshot",
    "network_health": "console.network_health",
    "instance_detail": "console.instance_detail",
    "intermediate_results": "console.intermediate_results",
    "provenance_run": "console.provenance_run",
    "events_scan": "console.events_scan",
    "view_queries": "console.view_query",
    "provenance_ancestry": "console.provenance_ancestry",
    "plan_rerun": "console.plan_rerun",
}


class Ledger:
    """Per-name and per-layer totals of one traced unit."""

    def __init__(self, tracer: Tracer):
        names, parents = tracer.names, tracer.parents
        count = len(names)
        durations = [tracer.ends[i] - tracer.starts[i] for i in range(count)]
        child_time = [0.0] * count
        for index in range(1, count):
            child_time[parents[index]] += durations[index]
        bit_of_metric = {metric: 1 << position
                         for position, metric in enumerate(INCLUSIVE)}
        bits_of_name: Dict[str, int] = {}
        for metric, span_names in INCLUSIVE.items():
            for span_name in span_names:
                bits_of_name[span_name] = (bits_of_name.get(span_name, 0)
                                           | bit_of_metric[metric])
        inclusive_by_bit = {bit: 0.0 for bit in bit_of_metric.values()}
        inherited = [0] * count
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.value: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        wanted = set(CONSOLE_P50.values()) | {"shard.execute"}
        for index in range(count):
            name = names[index]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + durations[index] - child_time[index])
            self.value[name] = (self.value.get(name, 0)
                                + tracer.values[index])
            above = inherited[parents[index]] if index else 0
            own = bits_of_name.get(name, 0)
            inherited[index] = above | own
            fresh = own & ~above
            while fresh:
                bit = fresh & -fresh
                inclusive_by_bit[bit] += durations[index]
                fresh ^= bit
            if name in wanted and (name != "shard.execute"
                                   or tracer.values[index]):
                self.durations.setdefault(name, []).append(durations[index])
        self.inclusive = {metric: inclusive_by_bit[bit]
                          for metric, bit in bit_of_metric.items()}
        self.wall_s = durations[0]
        self.spans = count
        self.lifted = list(tracer.lifted)
        # Bytes of every snapshot a checkpoint wrote: the encode spans
        # directly under a snapshot save.
        self.checkpoint_bytes = sum(
            tracer.values[i] for i in range(1, count)
            if names[i] == "codec.encode"
            and names[parents[i]] == "kv.snapshot_save")

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer (``harness`` is the unattributed rest)."""
        layers: Dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def self_of(self, *names: str) -> float:
        """Summed self time of the given span names."""
        return sum(self.self_s.get(name, 0.0) for name in names)

    def calls_of(self, *names: str) -> int:
        """Summed call count of the given span names."""
        return sum(self.calls.get(name, 0) for name in names)

    def value_of(self, *names: str) -> float:
        """Summed recorded value of the given span names."""
        return sum(self.value.get(name, 0) for name in names)

    def p50_us(self, name: str) -> float:
        """Median duration of a span name in µs (0.0 if it never fired)."""
        values = self.durations.get(name)
        return statistics.median(values) * 1e6 if values else 0.0


#: every per-layer metric, in print order: (name, unit, better). The names
#: are the ``per_layer`` names of BENCHMARK.json (test_smoke.py checks).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("bio.self_s", "s", "lower"),
    ("bio.calls", "count", "lower"),
    ("navigator.self_s", "s", "lower"),
    ("navigator.calls", "count", "lower"),
    ("navigator.us_per_call", "us", "lower"),
    ("instance.replay_s", "s", "lower"),
    ("instance.replays", "count", "lower"),
    ("server.launch_self_s", "s", "lower"),
    ("server.completion_self_s", "s", "lower"),
    ("server.emit_self_s", "s", "lower"),
    ("server.other_self_s", "s", "lower"),
    ("server.events_emitted", "count", "lower"),
    ("server.recover_s", "s", "lower"),
    ("server.recoveries", "count", "lower"),
    ("dispatcher.enqueue_self_s", "s", "lower"),
    ("dispatcher.pump_self_s", "s", "lower"),
    ("dispatcher.pumps", "count", "lower"),
    ("dispatcher.placed", "count", "higher"),
    ("dispatcher.placed_per_pump", "ratio", "higher"),
    ("sim.step_self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_op", "ratio", "lower"),
    ("network.self_s", "s", "lower"),
    ("network.messages", "count", "lower"),
    ("network.dropped", "count", "lower"),
    ("pec.self_s", "s", "lower"),
    ("pec.jobs", "count", "lower"),
    ("pec.report_retransmits", "count", "lower"),
    ("env.self_s", "s", "lower"),
    ("codec.encode_self_s", "s", "lower"),
    ("codec.encode_calls", "count", "lower"),
    ("codec.encode_bytes", "bytes", "lower"),
    ("codec.decode_self_s", "s", "lower"),
    ("codec.decode_calls", "count", "lower"),
    ("wal.append_s", "s", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.bytes", "bytes", "lower"),
    ("wal.sync_s", "s", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.fsyncs_per_kop", "1/kop", "lower"),
    ("wal.rotations", "count", "lower"),
    ("wal.read_s", "s", "lower"),
    ("kv.commit_self_s", "s", "lower"),
    ("kv.commits", "count", "lower"),
    ("kv.commits_per_op", "ratio", "lower"),
    ("kv.checkpoint_s", "s", "lower"),
    ("kv.checkpoints", "count", "lower"),
    ("kv.checkpoint_bytes", "bytes", "lower"),
    ("kv.open_s", "s", "lower"),
    ("kv.records_replayed", "count", "lower"),
    ("kv.scan_s", "s", "lower"),
    ("kv.scan_calls", "count", "lower"),
    ("disk.bytes_per_op", "bytes", "lower"),
    ("spaces.append_self_s", "s", "lower"),
    ("spaces.events_appended", "count", "lower"),
    ("spaces.meta_self_s", "s", "lower"),
    ("spaces.lineage_self_s", "s", "lower"),
    ("spaces.read_s", "s", "lower"),
    ("obs.fold_self_s", "s", "lower"),
    ("obs.folds", "count", "lower"),
    ("obs.checkpoint_s", "s", "lower"),
    ("obs.catch_up_s", "s", "lower"),
    ("obs.query_s", "s", "lower"),
    ("prov.fold_self_s", "s", "lower"),
    ("prov.query_s", "s", "lower"),
    ("prov.export_s", "s", "lower"),
    ("broker.self_s", "s", "lower"),
    ("broker.requests", "count", "lower"),
    ("broker.redeliveries", "count", "lower"),
    ("shard.execute_self_s", "s", "lower"),
    ("router.self_s", "s", "lower"),
    ("shard.launch_p50_us", "us", "lower"),
    ("shard.launch_p99_us", "us", "lower"),
    ("shard.launch_samples", "count", "higher"),
    ("console.self_s", "s", "lower"),
    ("queries.self_s", "s", "lower"),
] + [(f"console.{op}_p50_us", "us", "lower") for op in CONSOLE_P50] + [
    ("sim.makespan_s", "s", "lower"),
    ("sim.ack_p50_s", "s", "lower"),
    ("sim.ack_p99_s", "s", "lower"),
    ("sim.jobs_failed", "count", "lower"),
    ("sim.stale_results", "count", "lower"),
    ("harness.units", "count", "higher"),
    ("harness.unit_spread", "ratio", "lower"),
    ("harness.traced_wall_s", "s", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.attributed_fraction", "ratio", "higher"),
    ("harness.unattributed_s", "s", "lower"),
    ("harness.spans", "count", "lower"),
    ("harness.nivcsw", "count", "lower"),
    ("harness.loadavg1", "ratio", "lower"),
    ("harness.host_slowness", "ratio", "lower"),
]


def layer_metrics(book: Ledger, check, fsyncs: int,
                  harness: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric of one traced unit, 0 where idle.

    ``check`` is the unit's ``UnitCheck`` (op count, simulated-time
    figures), ``fsyncs`` the ``os.fsync`` calls counted during the unit,
    ``harness`` what only the caller knows about the untraced units.
    """
    ops = max(1, check.ops)
    layers = book.layer_self_s()
    navigations = book.calls_of("navigator.navigate")
    pumps = book.calls_of("dispatcher.pump")
    appends = book.calls_of("wal.append", "wal.append_many")
    wal_bytes = book.value_of("wal.append", "wal.append_many")
    requests = book.value_of("broker.submit")
    launches = book.durations.get("shard.execute", ())
    root_self = book.self_s[ROOT]
    values: Dict[str, float] = {
        "bio.self_s": layers.get("bio", 0.0),
        "bio.calls": book.calls_of("bio.run"),
        "navigator.self_s": book.self_of("navigator.navigate"),
        "navigator.calls": navigations,
        "navigator.us_per_call": (
            1e6 * book.self_of("navigator.navigate") / navigations
            if navigations else 0.0),
        "instance.replays": book.calls_of("instance.replay"),
        "server.launch_self_s": book.self_of("server.launch"),
        "server.completion_self_s": book.self_of("server.completion"),
        "server.emit_self_s": book.self_of("server.emit",
                                           "server.emit_batch"),
        "server.other_self_s": book.self_of(
            "server.other", "server.recover", "server.failover"),
        "server.events_emitted": book.value_of("server.emit",
                                               "server.emit_batch"),
        "server.recoveries": book.calls_of("server.recover"),
        "dispatcher.enqueue_self_s": book.self_of("dispatcher.enqueue"),
        "dispatcher.pump_self_s": book.self_of("dispatcher.pump"),
        "dispatcher.pumps": pumps,
        "dispatcher.placed": book.value_of("dispatcher.pump"),
        "dispatcher.placed_per_pump": (
            book.value_of("dispatcher.pump") / pumps if pumps else 0.0),
        "sim.step_self_s": book.self_of("sim.step"),
        "sim.events": book.calls_of("sim.step"),
        "sim.events_per_op": book.calls_of("sim.step") / ops,
        "network.self_s": book.self_of("network.send"),
        "network.messages": book.calls_of("network.send"),
        "network.dropped": book.value_of("network.send"),
        "pec.self_s": layers.get("pec", 0.0),
        "pec.jobs": book.calls_of("pec.receive_job"),
        "pec.report_retransmits": book.calls_of("pec.report_undelivered"),
        "env.self_s": layers.get("env", 0.0),
        "codec.encode_self_s": book.self_of("codec.encode"),
        "codec.encode_calls": book.calls_of("codec.encode"),
        "codec.encode_bytes": book.value_of("codec.encode"),
        "codec.decode_self_s": book.self_of("codec.decode"),
        "codec.decode_calls": book.calls_of("codec.decode"),
        "wal.appends": appends,
        "wal.bytes": wal_bytes,
        "wal.fsyncs": fsyncs,
        "wal.fsyncs_per_kop": 1000.0 * fsyncs / ops,
        "wal.rotations": book.calls_of("wal.rotate"),
        "kv.commit_self_s": book.self_of("kv.commit"),
        "kv.commits": book.calls_of("kv.commit"),
        "kv.commits_per_op": book.calls_of("kv.commit") / ops,
        "kv.checkpoints": book.calls_of("kv.checkpoint"),
        "kv.checkpoint_bytes": book.checkpoint_bytes,
        "kv.records_replayed": book.value_of("kv.open"),
        "kv.scan_calls": book.value_of("kv.scan"),
        # Record payloads, their 8-byte frames and checkpoint snapshots:
        # what the store hands to its log and snapshot files (or, on the
        # in-memory backends, would).
        "disk.bytes_per_op": (wal_bytes + 8 * appends
                              + book.checkpoint_bytes) / ops,
        "spaces.append_self_s": book.self_of("spaces.append"),
        "spaces.events_appended": book.value_of("spaces.append"),
        "spaces.meta_self_s": book.self_of("spaces.meta"),
        "spaces.lineage_self_s": book.self_of("spaces.lineage"),
        "obs.fold_self_s": book.self_of("obs.fold", "obs.span_fold"),
        "obs.folds": book.value_of("obs.fold"),
        "prov.fold_self_s": book.self_of("prov.fold", "prov.catch_up",
                                         "prov.checkpoint"),
        "broker.self_s": layers.get("broker", 0.0),
        "broker.requests": requests,
        # Every delivery to a shard beyond one per request.
        "broker.redeliveries": max(
            0, book.calls_of("broker.deliver") - requests),
        "shard.execute_self_s": book.self_of("shard.execute"),
        "router.self_s": layers.get("router", 0.0),
        "shard.launch_p50_us": 1e6 * percentile(launches, 0.50),
        "shard.launch_p99_us": 1e6 * percentile(launches, 0.99),
        "shard.launch_samples": len(launches),
        "console.self_s": layers.get("console", 0.0),
        "queries.self_s": layers.get("queries", 0.0),
        "harness.traced_wall_s": book.wall_s,
        "harness.attributed_fraction": 1.0 - root_self / book.wall_s,
        "harness.unattributed_s": root_self,
        "harness.spans": book.spans,
    }
    values.update(book.inclusive)
    for op, span_name in CONSOLE_P50.items():
        values[f"console.{op}_p50_us"] = book.p50_us(span_name)
    values.update(check.sim)
    values.update(harness)
    return {name: (float(values[name]), unit)
            for name, unit, _better in PER_LAYER}


def print_ledger(book: Ledger) -> None:
    """The ledger proper: self time and share of the traced wall per
    layer, which sum to the wall."""
    print(f"ledger of the traced unit ({book.wall_s:.3f} s, "
          f"{book.spans} spans):")
    for layer, seconds in sorted(book.layer_self_s().items(),
                                 key=lambda item: -item[1]):
        label = "harness (unattributed)" if layer == "harness" else layer
        print(f"  {label:<24}{seconds:9.4f} s {100 * seconds / book.wall_s:6.2f} %")
    for name in book.lifted:
        print(f"  lifted to its caller after {LIFT_AFTER} spans: {name}")
