"""Minimum-redundancy prefix codes.

Construction of optimal codeword lengths without materializing the code
tree, reference oracles, validity checkers, and a canonical bit codec.
"""

from .core import (CodeLengthProfile, ComparisonCounter, ConstructionStats,
                   InvalidAssignmentError, LevelState, LevelTraceEntry,
                   WeightItem, WeightList, assignment_from_lengths, code_cost,
                   distinct_length_count, kraft_sum, monotone,
                   verify_exclusion)
from .selection import select_rank
from .split import (LeafSlice, SplitResult, add_weights, cut,
                    find_splitting_all, find_splitting_internal,
                    find_t_largest, find_t_smallest, node_count)
from .construct import ConstructionMode, construct_lengths
from .oracle import huffman_lengths, huffman_sorted_lengths
from .codec import (CanonicalTable, ContainerFormatError, DecodeError,
                    canonical_codes, decode, encode, pack_container,
                    unpack_container)

__version__ = "0.1.0"

__all__ = [
    "CanonicalTable", "CodeLengthProfile", "ComparisonCounter",
    "ConstructionMode", "ConstructionStats", "ContainerFormatError",
    "DecodeError", "InvalidAssignmentError", "LeafSlice", "LevelState",
    "LevelTraceEntry", "SplitResult", "WeightItem", "WeightList",
    "add_weights", "assignment_from_lengths", "canonical_codes",
    "code_cost", "construct_lengths", "cut", "decode",
    "distinct_length_count", "encode",
    "find_splitting_all", "find_splitting_internal", "find_t_largest",
    "find_t_smallest", "huffman_lengths", "huffman_sorted_lengths",
    "kraft_sum", "monotone", "node_count",
    "pack_container", "select_rank", "unpack_container", "verify_exclusion",
]
