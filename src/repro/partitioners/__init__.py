"""Partitioning algorithms: heuristics and exact solvers."""

from .base import PartitionResult, evaluate, rebalance, weight_caps
from .exact import exact_bisection, exact_decision, exact_partition
from .fm import fm_bipartition_refine, fm_refine
from .greedy import bfs_growth_partition, greedy_sequential_partition
from .kl_swap import kl_swap_refine
from .multilevel import multilevel_partition
from .random_part import random_balanced_labels, random_balanced_partition
from .spectral import (
    clique_expansion_laplacian,
    spectral_bisection,
    spectral_order,
    spectral_partition,
)
from .recursive import (
    default_split,
    recursive_partition,
    restrict_to_nodes,
)
from .xp_solver import xp_decision, xp_multiconstraint_decision, xp_optimum

__all__ = [
    "PartitionResult",
    "bfs_growth_partition",
    "clique_expansion_laplacian",
    "default_split",
    "evaluate",
    "exact_bisection",
    "exact_decision",
    "exact_partition",
    "fm_bipartition_refine",
    "fm_refine",
    "greedy_sequential_partition",
    "kl_swap_refine",
    "multilevel_partition",
    "random_balanced_labels",
    "random_balanced_partition",
    "rebalance",
    "recursive_partition",
    "restrict_to_nodes",
    "spectral_bisection",
    "spectral_order",
    "spectral_partition",
    "weight_caps",
    "xp_decision",
    "xp_multiconstraint_decision",
    "xp_optimum",
]
