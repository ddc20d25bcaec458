"""Minimum-redundancy prefix codes.

Construction of optimal codeword lengths without materializing the code
tree, reference oracles, validity checkers, and a canonical bit codec.
"""

from .core import (CodeLengthProfile, ComparisonCounter, ConstructionStats,
                   InvalidAssignmentError, LevelTraceEntry, WeightItem,
                   WeightList, code_cost, distinct_length_count, kraft_sum,
                   monotone, verify_exclusion)
from .selection import select_rank
from .split import LeafSlice, node_count
from .construct import ConstructionMode, construct_lengths
from .oracle import huffman_lengths, huffman_sorted_lengths
from .codec import (CanonicalTable, ContainerFormatError, DecodeError,
                    canonical_codes, decode, encode, pack_container,
                    unpack_container)

__version__ = "0.1.0"

__all__ = [
    "CanonicalTable", "CodeLengthProfile", "ComparisonCounter",
    "ConstructionMode", "ConstructionStats", "ContainerFormatError",
    "DecodeError", "InvalidAssignmentError", "LeafSlice", "LevelTraceEntry",
    "WeightItem", "WeightList", "canonical_codes", "code_cost",
    "construct_lengths", "decode", "distinct_length_count", "encode",
    "huffman_lengths", "huffman_sorted_lengths", "kraft_sum", "monotone",
    "node_count", "pack_container", "select_rank", "unpack_container",
    "verify_exclusion",
]
