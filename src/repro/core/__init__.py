"""Core substrate: hypergraphs, partitions, cost metrics, balance
constraints, computational DAGs and hyperDAGs (paper Section 3)."""

from .balance import (
    MultiConstraint,
    all_parts_nonempty_guaranteed,
    balance_threshold,
    is_balanced,
    max_nonempty_parts_bound,
    min_parts_to_cover,
)
from .cost import Metric, connectivity_cost, cost, cut_edges, cut_net_cost
from .dag import DAG
from .hyperdag import (
    HyperDAGCertificate,
    degree_sequence_admissible,
    densest_hyperdag,
    hendrickson_kolda_hypergraph,
    hyperdag_from_dag,
    is_hyperdag,
    recognize,
    to_dag,
    verify_generators,
)
from .hypergraph import Hypergraph
from .partition import BLUE, RED, Partition, lambdas, part_sizes, part_weights
from .validation import PartitionReport, validate_partition

__all__ = [
    "BLUE",
    "DAG",
    "HyperDAGCertificate",
    "Hypergraph",
    "Metric",
    "MultiConstraint",
    "Partition",
    "PartitionReport",
    "RED",
    "all_parts_nonempty_guaranteed",
    "balance_threshold",
    "connectivity_cost",
    "cost",
    "cut_edges",
    "cut_net_cost",
    "degree_sequence_admissible",
    "densest_hyperdag",
    "hendrickson_kolda_hypergraph",
    "hyperdag_from_dag",
    "is_balanced",
    "is_hyperdag",
    "lambdas",
    "max_nonempty_parts_bound",
    "min_parts_to_cover",
    "part_sizes",
    "part_weights",
    "recognize",
    "to_dag",
    "validate_partition",
    "verify_generators",
]
