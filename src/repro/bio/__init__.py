"""Darwin-substitute bioinformatics substrate: sequences, PAM matrices,
Smith-Waterman alignment, PAM-distance estimation, and cost models."""

from .align import Alignment, GAP_EXTEND, GAP_OPEN, sw_align, sw_score
from .alphabet import AMINO_ACIDS
from .costmodel import CostModel, DatabaseProfile, QueueIndex
from .darwin import (
    DarwinEngine,
    MATCH_THRESHOLD,
    empty_match_set,
    merge_match_sets,
)
from .matrices import MatrixFamily, default_family
from .pam import PamEstimate, refine_distance, scan_distance
from .sequence import Sequence, SequenceDatabase

__all__ = [
    "AMINO_ACIDS",
    "Alignment",
    "GAP_OPEN",
    "GAP_EXTEND",
    "sw_score",
    "sw_align",
    "MatrixFamily",
    "default_family",
    "PamEstimate",
    "scan_distance",
    "refine_distance",
    "Sequence",
    "SequenceDatabase",
    "DatabaseProfile",
    "CostModel",
    "QueueIndex",
    "DarwinEngine",
    "MATCH_THRESHOLD",
    "empty_match_set",
    "merge_match_sets",
]
