"""The queue index: a TEU's cost is its partition's, the queue is indexed once.

An all-vs-all's TEUs share one queue file. :class:`DarwinEngine` indexes it
once (sorted entries, their array, the suffix sums of their lengths) and
every TEU reuses that index. These tests hold the reused index to a fresh
engine per call, and the cost model to the per-call computation it replaced.
"""

import re

import numpy as np
import pytest

from repro.bio import DarwinEngine, DatabaseProfile, QueueIndex
from repro.bio import darwin as darwin_module
from repro.core.engine import BioOperaServer, InlineEnvironment
from repro.errors import BioError
from repro.processes import install_all_vs_all
from repro.processes import partitioning as P
from repro.store import codec


def queues(n):
    """A range queue, a stride queue and a gapped list queue over 1..n."""
    return [
        P.range_queue(n),
        {"kind": "stride", "start": 2, "stride": 3, "hi": n},
        P.list_queue([i for i in range(1, n + 1) if i % 5 and i % 7]),
    ]


STRATEGIES = ("interleaved", "contiguous", "balanced")


def teus(queue, profile, strategies=STRATEGIES):
    """Every TEU of ``make_partitions`` at two granularities."""
    for granularity in (3, 7):
        for strategy in strategies:
            yield from P.make_partitions(queue, granularity, strategy,
                                         profile=profile)


def encoded(result):
    return codec.encode({key: result[key]
                         for key in ("match_set", "pairs", "cost")})


def per_call_cost(model, profile, partition, queue):
    """The fixed-PAM cost and pair count as computed before the index:
    the queue sorted, its suffix sums built, in every call."""
    queue_arr = np.asarray(sorted(queue), dtype=np.int64)
    queue_lengths = profile.lengths[queue_arr - 1].astype(np.float64)
    suffix = np.concatenate([np.cumsum(queue_lengths[::-1])[::-1], [0.0]])
    positions = np.searchsorted(queue_arr, np.asarray(partition))
    cells = 0.0
    for pos, entry in zip(positions, partition):
        cells += profile.length(entry) * suffix[pos + 1]
    pairs = int(sum(len(queue_arr) - pos - 1 for pos in positions))
    return cells * model.fixed_pam_factor / model.cell_rate, pairs


@pytest.fixture(scope="module")
def modeled_profile():
    return DatabaseProfile.synthetic("p", 400, seed=3)


def engines(mode, small_db, small_profile, modeled_profile):
    """A factory of identically configured engines for ``mode``."""
    if mode == "real":
        return lambda: DarwinEngine(small_profile, database=small_db,
                                    mode="real", match_threshold=60.0,
                                    seed=5)
    return lambda: DarwinEngine(modeled_profile, mode="modeled", seed=4,
                                random_match_rate=0.01)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("mode", ["modeled", "real"])
    def test_reused_engine_equals_fresh_engine_per_call(
            self, mode, small_db, small_profile, modeled_profile):
        make = engines(mode, small_db, small_profile, modeled_profile)
        warm = make()
        # Real alignments are slow: the default strategy only.
        strategies = STRATEGIES if mode == "modeled" else STRATEGIES[:1]
        calls = 0
        # Queue after queue: the one slot is hit within a queue and
        # replaced at each new one.
        for queue in queues(len(warm.profile)):
            for part in teus(queue, warm.profile, strategies):
                partition, entries = P.expand(part), P.expand(queue)
                reused = warm.align_partition(partition, entries)
                fresh = make().align_partition(partition, entries)
                assert encoded(reused) == encoded(fresh)
                calls += 1
        assert calls >= 3 * 10 * len(strategies)

    def test_modeled_cost_equals_the_per_call_computation(
            self, modeled_profile):
        darwin = DarwinEngine(modeled_profile, mode="modeled", seed=4,
                              random_match_rate=0.0)
        model = darwin.cost_model
        for queue in queues(len(modeled_profile)):
            entries = P.expand(queue)
            for part in teus(queue, modeled_profile):
                partition = sorted(P.expand(part))
                result = darwin.align_partition(partition, entries)
                cost, pairs = per_call_cost(model, modeled_profile,
                                            partition, entries)
                count = result["match_set"]["count"]
                assert result["pairs"] == pairs
                assert result["cost"] == (
                    cost + darwin.init_cost()
                    + count * model.match_record_cost)

    def test_equal_queues_share_one_index(self, modeled_profile):
        darwin = DarwinEngine(modeled_profile, mode="modeled")
        darwin.align_partition([1, 2], range(1, 401))
        first = darwin._index
        darwin.align_partition([3], range(1, 401))
        assert darwin._index is first
        darwin.align_partition([3], list(range(1, 401)))
        assert darwin._index is not first
        assert list(darwin._index.entries) == list(range(1, 401))


class TestOutsideTheQueue:
    @pytest.mark.parametrize("partition,unknown", [
        ([6, 401], [401]),     # past the queue's end
        ([6, 10, 14], [10, 14]),  # in the list queue's gaps
        ([0, 1], [0]),         # before its start
    ])
    def test_raises_on_a_warm_index(self, modeled_profile, partition,
                                    unknown):
        darwin = DarwinEngine(modeled_profile, mode="modeled", seed=4)
        queue = P.expand(queues(400)[2])
        darwin.align_partition([1, 2, 3], queue)
        warm = darwin._index
        with pytest.raises(BioError, match=re.escape(str(unknown))):
            darwin.align_partition(partition, queue)
        assert darwin._index is warm
        cold = DarwinEngine(modeled_profile, mode="modeled", seed=4)
        assert encoded(darwin.align_partition([1, 2, 3], queue)) == encoded(
            cold.align_partition([1, 2, 3], queue))

    def test_locate_on_an_empty_queue(self, modeled_profile):
        index = QueueIndex(modeled_profile, ())
        assert len(index.locate([])) == 0
        with pytest.raises(BioError):
            index.locate([1])


class TestExpand:
    def test_ranges_and_strides_are_not_materialized(self):
        assert P.expand(P.range_queue(20_000)) == range(1, 20_001)
        stride = {"kind": "stride", "start": 2, "stride": 3, "hi": 11}
        assert P.expand(stride) == range(2, 12, 3)

    def test_a_list_descriptor_is_a_tuple(self):
        assert P.expand(P.list_queue([4, 2])) == (2, 4)


class TestIndexedOncePerProcess:
    def test_all_vs_all_builds_the_queue_index_once(self, monkeypatch):
        built, aligned = [], []

        class CountingIndex(QueueIndex):
            def __init__(self, profile, queue):
                built.append(len(queue))
                super().__init__(profile, queue)

        monkeypatch.setattr(darwin_module, "QueueIndex", CountingIndex)
        align = DarwinEngine.align_partition

        def counting_align(self, partition, queue):
            aligned.append(len(partition))
            return align(self, partition, queue)

        monkeypatch.setattr(DarwinEngine, "align_partition", counting_align)
        profile = DatabaseProfile.synthetic("big", 20_000, seed=1)
        darwin = DarwinEngine(profile, mode="modeled", sample_cap=20)
        server = BioOperaServer(seed=2)
        env = InlineEnvironment(nodes={"n1": 4, "n2": 4})
        server.attach_environment(env)
        install_all_vs_all(server, darwin)
        iid = server.launch("all_vs_all", {"db_name": "big",
                                           "granularity": 40})
        assert env.run_instance(iid) == "completed"
        assert len(aligned) == 40 and sum(aligned) == 20_000
        assert built == [20_000]
