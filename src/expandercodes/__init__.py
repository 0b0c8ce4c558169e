"""Expander codes from bipartite graphs: exact minimum distance, expansion
certificates, and exhaustive structural checks."""

from .errors import CapabilityError, ParseError
from .gf2 import (
    Gf2Matrix,
    is_minimal_dependent,
    nullspace_basis,
    rank,
    xor_columns,
)
from .graph import (
    BipartiteGraph,
    BoundsSweep,
    ExpanderCertificate,
    ExpansionProfile,
    PartitionSweep,
    check_expansion,
    expansion_profile,
    find_bounds_violation,
    find_partition_violation,
    odd_neighborhood_bounds,
)
from .instances import (
    GenSpec,
    SplitMix64,
    figure1,
    parse_graph,
    random_right_regular,
    serialize_graph,
)
from .mindist import (
    INFINITE,
    MinDistanceResult,
    PruningParams,
    distance_lower_bound,
    min_distance_kernel,
    min_distance_pruned,
    min_distance_subset,
    verify_distance_result,
)
from .subsets import RightSubset

__all__ = [
    "BipartiteGraph",
    "BoundsSweep",
    "CapabilityError",
    "ExpanderCertificate",
    "ExpansionProfile",
    "GenSpec",
    "Gf2Matrix",
    "INFINITE",
    "MinDistanceResult",
    "ParseError",
    "PartitionSweep",
    "PruningParams",
    "RightSubset",
    "SplitMix64",
    "check_expansion",
    "distance_lower_bound",
    "expansion_profile",
    "figure1",
    "find_bounds_violation",
    "find_partition_violation",
    "is_minimal_dependent",
    "min_distance_kernel",
    "min_distance_pruned",
    "min_distance_subset",
    "nullspace_basis",
    "odd_neighborhood_bounds",
    "parse_graph",
    "random_right_regular",
    "rank",
    "serialize_graph",
    "verify_distance_result",
    "xor_columns",
]

__version__ = "0.1.0"
