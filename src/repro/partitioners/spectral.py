"""Spectral bisection baseline (clique-expansion + Fiedler vector).

The classic graph-partitioning approach the hypergraph literature
improves on: expand each hyperedge into a clique with weights
``w_e/(|e|−1)``, take the Fiedler vector of the resulting Laplacian, and
split at the weighted median.  Included as a baseline — the paper's
Section 1 argument is precisely that such graph proxies misestimate
hyperedge communication, which the quality benchmarks make visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.cost import Metric
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from .base import weight_caps
from .fm import fm_refine

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["clique_expansion_laplacian", "spectral_order",
           "spectral_bisection", "spectral_partition"]


def clique_expansion_laplacian(graph: Hypergraph) -> sp.csr_matrix:
    """Weighted clique-expansion Laplacian ``L = D − A``.

    Each hyperedge ``e`` contributes weight ``w_e / (|e| − 1)`` to every
    pin pair (the standard normalisation making a cut 2-pin edge cost
    exactly ``w_e``).
    """
    import scipy.sparse as sp

    n = graph.n
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for j, e in enumerate(graph.edges):
        if len(e) < 2:
            continue
        w = float(graph.edge_weights[j]) / (len(e) - 1)
        for a in range(len(e)):
            for b_ in range(a + 1, len(e)):
                u, v = e[a], e[b_]
                rows.extend((u, v))
                cols.extend((v, u))
                vals.extend((-w, -w))
    adj = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    deg = -np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(deg) - (-adj)


def spectral_order(graph: Hypergraph,
                   rng: int | np.random.Generator | None = None,
                   ) -> np.ndarray:
    """Nodes sorted by Fiedler-vector value (the spectral embedding).

    Falls back to index order for graphs too small for a meaningful
    second eigenvector.
    """
    # imported here: scipy.sparse.linalg (and scipy.linalg under it)
    # would otherwise load with every ``import repro.partitioners``
    import scipy.sparse.linalg as spla

    n = graph.n
    if n < 4:
        return np.arange(n, dtype=np.int64)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    lap = clique_expansion_laplacian(graph).asfptype()
    try:
        v0 = gen.random(n)
        _, vecs = spla.eigsh(lap, k=2, sigma=-1e-4, which="LM", v0=v0,
                             maxiter=2000)
        fiedler = vecs[:, 1]
    except (spla.ArpackError, np.linalg.LinAlgError, RuntimeError,
            ValueError):
        # ARPACK non-convergence, a singular shift-invert factorisation
        # (RuntimeError from splu), or k >= n: fall back to the dense
        # eigensolver, which is robust at the sizes where these occur
        dense = lap.toarray()
        _, vecs = np.linalg.eigh(dense)
        fiedler = vecs[:, 1]
    return np.argsort(fiedler, kind="stable")


def spectral_bisection(graph: Hypergraph,
                       rng: int | np.random.Generator | None = None,
                       ) -> np.ndarray:
    """0/1 labels from the median split of the Fiedler embedding."""
    n = graph.n
    order = spectral_order(graph, rng)
    labels = np.zeros(n, dtype=np.int64)
    labels[order[n // 2:]] = 1
    return labels


def spectral_partition(
    graph: Hypergraph,
    k: int,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    rng: int | np.random.Generator | None = None,
    refine: bool = True,
    relaxed: bool = True,
) -> Partition:
    """Recursive spectral bisection into ``k`` parts (+ optional FM).

    A graph-model baseline: competitive on graph-like instances, weaker
    where large hyperedges dominate (Section 1's modelling argument).
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    from .recursive import restrict_to_nodes

    labels = np.zeros(graph.n, dtype=np.int64)

    def rec(node_ids: list[int], parts: int, offset: int) -> None:
        if parts == 1 or not node_ids:
            for v in node_ids:
                labels[v] = offset
            return
        sub = restrict_to_nodes(graph, node_ids)
        order = spectral_order(sub, gen)
        k_left = (parts + 1) // 2
        # cut the Fiedler embedding at the target proportion
        want_left = round(len(node_ids) * k_left / parts)
        side = np.ones(len(node_ids), dtype=np.int64)
        side[order[:want_left]] = 0
        left = [node_ids[i] for i in range(len(node_ids)) if side[i] == 0]
        right = [node_ids[i] for i in range(len(node_ids)) if side[i] == 1]
        rec(left, k_left, offset)
        rec(right, parts - k_left, offset + k_left)

    rec(list(range(graph.n)), k, 0)
    part = Partition(labels, k)
    if refine:
        caps = weight_caps(graph, k, eps, relaxed=relaxed)
        part = fm_refine(graph, part, eps=eps, metric=metric, caps=caps)
    return part
