"""Persistence substrate: WAL-backed KV store and the BioOpera data spaces.

Public surface: :class:`KVStore` (checkpoint-bounded recovery over a
segmented WAL), the BioOpera data spaces (:class:`OperaStore` and the four
space classes), the WAL (:class:`SegmentedWAL`), and the
:class:`MemoryDisk` an in-memory store runs it on.
"""

from .disk import MemoryDisk
from .kvstore import KVStore, MEMORY, Transaction
from .spaces import (
    ConfigurationSpace,
    DataSpace,
    InstanceSpace,
    OperaStore,
    TemplateSpace,
)
from .wal import SegmentedWAL

__all__ = [
    "KVStore",
    "MEMORY",
    "Transaction",
    "MemoryDisk",
    "SegmentedWAL",
    "OperaStore",
    "TemplateSpace",
    "InstanceSpace",
    "ConfigurationSpace",
    "DataSpace",
]
