"""Hierarchical and topology-aware cost functions (Def. 7.1, App. I.2).

For a hyperedge ``e`` let ``λ_e^{(i)}`` be the number of level-``i``
parts it intersects (``λ_e^{(0)} = 1``).  Its hierarchical cost is
``Σ_i g_i · (λ_e^{(i)} − λ_e^{(i−1)})``; the partition cost is the sum
over hyperedges (weighted).

For an arbitrary processor topology (a metric on the k units), the
analogous cost of a hyperedge is the weight of a minimum Steiner tree
spanning the processors it touches (Appendix I.2); we provide both the
exact Dreyfus–Wagner computation and the 2-approximate metric-closure
MST.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np
import scipy.sparse.csgraph as csgraph

from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..errors import ProblemTooLargeError
from .topology import HierarchyTopology

__all__ = [
    "hierarchical_lambdas",
    "hierarchical_cost",
    "steiner_tree_cost",
    "steiner_hyperedge_cost",
]


def _leaf_labels(partition: Partition | Sequence[int] | np.ndarray,
                 k: int) -> np.ndarray:
    if isinstance(partition, Partition):
        if partition.k != k:
            raise ValueError(f"partition has k={partition.k}, topology k={k}")
        return partition.labels
    return np.asarray(partition, dtype=np.int64)


def hierarchical_lambdas(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    topology: HierarchyTopology,
) -> np.ndarray:
    """Matrix of λ_e^{(i)}: shape ``(d+1, m)``; row 0 is all ones.

    ``partition`` assigns nodes directly to *leaves* ``0..k-1`` of the
    topology (canonical order).
    """
    k = topology.k
    labels = _leaf_labels(partition, k)
    anc = topology.ancestors_matrix()  # (d+1, k)
    m = graph.num_edges
    out = np.ones((topology.depth + 1, m), dtype=np.int64)
    ptr, pins = graph.csr()
    if m == 0:
        return out
    pin_leaf = labels[pins]
    edge_ids = np.repeat(np.arange(m, dtype=np.int64), np.diff(ptr))
    for level in range(1, topology.depth + 1):
        # distinct (edge, subtree) codes by a sort and a neighbour
        # compare: a plain np.unique takes NumPy 2.4's hash path, which
        # timed 30-55x slower on 3*10^5-10^6 random int64 codes (2 CPUs)
        width = int(anc[level].max()) + 1
        codes = np.sort(edge_ids * width + anc[level][pin_leaf])
        first = np.empty(codes.size, dtype=bool)
        first[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        out[level] = np.bincount(codes[first] // width, minlength=m)
    # Empty hyperedges have no pins: force λ^{(i)} = 1 so the cost is 0.
    sizes = np.diff(ptr)
    out[:, sizes == 0] = 1
    return out


def _reference_hierarchical_lambdas(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    topology: HierarchyTopology,
) -> np.ndarray:
    """Pure-Python oracle twin of :func:`hierarchical_lambdas`.

    λ_e^{(i)} is, by Definition 7.1, the number of distinct level-``i``
    ancestors among the leaves a hyperedge's pins land on — computed
    here with literal set-building per edge, one level at a time.
    """
    k = topology.k
    labels = _leaf_labels(partition, k)
    anc = topology.ancestors_matrix()
    out = np.ones((topology.depth + 1, graph.num_edges), dtype=np.int64)
    for j, edge in enumerate(graph.edges):
        if len(edge) == 0:
            continue
        for level in range(1, topology.depth + 1):
            groups = {int(anc[level][labels[v]]) for v in edge}
            out[level, j] = len(groups)
    return out


def hierarchical_cost(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    topology: HierarchyTopology,
) -> float:
    """Total hierarchical cost (Definition 7.1), edge-weighted.

    For the depth-1 topology this reduces to ``g_1 ×`` the connectivity
    metric — the paper's "standard partitioning as a special case".
    """
    lam = hierarchical_lambdas(graph, partition, topology)
    g = np.asarray(topology.g, dtype=np.float64)
    per_edge = (g[:, None] * np.diff(lam, axis=0)).sum(axis=0)
    return float((graph.edge_weights * per_edge).sum())


# ---------------------------------------------------------------------------
# Arbitrary processor topologies (Appendix I.2)
# ---------------------------------------------------------------------------

def steiner_tree_cost(
    dist: np.ndarray,
    terminals: Sequence[int],
    exact: bool = True,
    max_terminals: int = 12,
) -> float:
    """Minimum Steiner tree weight in a metric given by ``dist``.

    ``dist`` is a symmetric (k × k) metric-closure distance matrix.
    ``exact=True`` runs Dreyfus–Wagner (O(3^t·k + 2^t·k²)); guarded at
    ``max_terminals``.  ``exact=False`` returns the metric-closure MST,
    a 2-approximation.
    """
    terms = sorted(set(int(v) for v in terminals))
    t = len(terms)
    if t <= 1:
        return 0.0
    k = dist.shape[0]
    if t == 2:
        return float(dist[terms[0], terms[1]])
    if not exact or t > max_terminals:
        if exact and t > max_terminals:
            raise ProblemTooLargeError(
                f"{t} terminals exceed exact Steiner guard {max_terminals}")
        # MST over the terminal metric closure.
        sub = dist[np.ix_(terms, terms)]
        mst = csgraph.minimum_spanning_tree(sub)
        return float(mst.sum())
    # Dreyfus–Wagner over terminal subsets.
    idx = {v: i for i, v in enumerate(terms)}
    full = (1 << t) - 1
    INF = np.inf
    # dp[mask][v]: min tree connecting terminal set `mask` and node v.
    dp = np.full((full + 1, k), INF)
    for v in terms:
        dp[1 << idx[v], :] = dist[v, :]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        # combine sub-masks
        sub = (mask - 1) & mask
        while sub:
            if sub < (mask ^ sub):  # each unordered pair once
                cand = dp[sub] + dp[mask ^ sub]
                np.minimum(dp[mask], cand, out=dp[mask])
            sub = (sub - 1) & mask
        # re-root through the metric
        dp[mask] = np.min(dp[mask][None, :] + dist, axis=1)
    root = terms[0]
    return float(dp[full ^ (1 << idx[root]), root])


def steiner_hyperedge_cost(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    dist: np.ndarray,
    exact: bool = True,
) -> float:
    """Appendix I.2 cost: per hyperedge, the min Steiner tree spanning
    the processors it touches, under an arbitrary metric ``dist``."""
    k = dist.shape[0]
    labels = _leaf_labels(partition, k)
    total = 0.0
    for j, e in enumerate(graph.edges):
        procs = {int(labels[v]) for v in e}
        total += graph.edge_weights[j] * steiner_tree_cost(dist, procs,
                                                           exact=exact)
    return float(total)
