"""Persistence substrate: WAL-backed KV store, BioOpera data spaces, lineage.

Public surface: :class:`KVStore` (checkpoint-bounded recovery over a
segmented WAL), the BioOpera data spaces (:class:`OperaStore` and the four
space classes), WAL backends (:class:`SegmentedWAL`, :class:`MemoryWAL`),
and the lineage graph.
"""

from .kvstore import KVStore, MEMORY, Transaction
from .lineage import LineageGraph, LineageRecord
from .spaces import (
    ConfigurationSpace,
    DataSpace,
    InstanceSpace,
    OperaStore,
    TemplateSpace,
)
from .wal import MemoryWAL, SegmentedWAL

__all__ = [
    "KVStore",
    "MEMORY",
    "Transaction",
    "MemoryWAL",
    "SegmentedWAL",
    "OperaStore",
    "TemplateSpace",
    "InstanceSpace",
    "ConfigurationSpace",
    "DataSpace",
    "LineageRecord",
    "LineageGraph",
]
