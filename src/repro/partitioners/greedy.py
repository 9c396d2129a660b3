"""Greedy constructive partitioners: sequential placement and BFS growth."""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.cost import Metric
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..core.tolerance import gt, leq
from ..errors import InfeasibleError
from .base import weight_caps

__all__ = ["greedy_sequential_partition", "bfs_growth_partition"]


def greedy_sequential_partition(
    graph: Hypergraph,
    k: int,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    rng: int | np.random.Generator | None = None,
    relaxed: bool = False,
) -> Partition:
    """Assign nodes one by one (random order) to the feasible part that
    increases the cost estimate least; ties favour the lightest part.

    The incremental estimate counts, per hyperedge, the number of
    distinct parts among *assigned* pins — a lower bound on the final
    λ_e that becomes exact once all pins are placed.

    A node's incident edges are read once and filtered to those that
    can cost anything (λ so far ≥ 1, or exactly 1 under cut-net), and
    every per-part scan then runs over plain lists: the same float
    sums in the same edge order as
    :func:`_reference_greedy_sequential_partition`, without a numpy
    scalar per pin.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    caps = weight_caps(graph, k, eps, relaxed=relaxed).tolist()
    conn = metric == Metric.CONNECTIVITY
    node_ptr, node_edges = graph.incidence()
    inc_ptr, inc = node_ptr.tolist(), node_edges.tolist()
    nw = graph.node_weights.tolist()
    ew = graph.edge_weights.tolist()
    labels = np.full(graph.n, -1, dtype=np.int64)
    pin_counts = [[0] * graph.num_edges for _ in range(k)]
    nonzero = [0] * graph.num_edges
    part_weight = [0.0] * k

    for v in gen.permutation(graph.n).tolist():
        w = nw[v]
        edges = inc[inc_ptr[v]:inc_ptr[v + 1]]
        if conn:
            live = [j for j in edges if nonzero[j] > 0]
        else:
            live = [j for j in edges if nonzero[j] == 1]
        best_b, best_key = -1, None
        for b in range(k):
            if gt(part_weight[b] + w, caps[b]):
                continue
            counts = pin_counts[b]
            delta = 0.0
            for j in live:
                if counts[j] == 0:
                    delta += ew[j]
            key = (delta, part_weight[b])
            if best_key is None or key < best_key:
                best_key, best_b = key, b
        if best_b < 0:
            raise InfeasibleError("no part can take node within caps "
                                  "(retry with relaxed=True)")
        labels[v] = best_b
        part_weight[best_b] += w
        counts = pin_counts[best_b]
        for j in edges:
            if counts[j] == 0:
                nonzero[j] += 1
            counts[j] += 1
    return Partition(labels, k)


def bfs_growth_partition(
    graph: Hypergraph,
    k: int,
    eps: float = 0.0,
    rng: int | np.random.Generator | None = None,
    relaxed: bool = False,
) -> Partition:
    """Grow parts one at a time by BFS over shared hyperedges from a
    random seed, filling each part to roughly ``n/k`` weight before
    starting the next.  Produces connected, locality-preserving parts —
    a strong initial partition for FM refinement."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    caps = weight_caps(graph, k, eps, relaxed=relaxed)
    target = graph.total_node_weight / k
    labels = np.full(graph.n, -1, dtype=np.int64)
    part_weight = np.zeros(k, dtype=np.float64)
    unassigned = set(range(graph.n))

    for b in range(k - 1):
        if not unassigned:
            break
        seed = int(gen.choice(sorted(unassigned)))
        queue = deque([seed])
        seen = {seed}
        while queue and part_weight[b] < target:
            v = queue.popleft()
            if labels[v] != -1:
                continue
            w = graph.node_weights[v]
            if gt(part_weight[b] + w, caps[b]):
                continue
            labels[v] = b
            part_weight[b] += w
            unassigned.discard(v)
            for j in graph.incident_edges(v):
                for u in graph.edges[int(j)]:
                    if u not in seen and labels[u] == -1:
                        seen.add(u)
                        queue.append(u)
            if not queue and part_weight[b] < target and unassigned:
                # component exhausted: jump to a fresh seed
                nxt = int(gen.choice(sorted(unassigned)))
                queue.append(nxt)
                seen.add(nxt)
    # Everything left goes to the last part if it fits, else spread.
    order = sorted(unassigned)
    gen.shuffle(order)
    for v in order:
        w = graph.node_weights[v]
        placed = False
        for b in sorted(range(k), key=lambda b: part_weight[b]):
            if leq(part_weight[b] + w, caps[b]):
                labels[v] = b
                part_weight[b] += w
                placed = True
                break
        if not placed:
            raise InfeasibleError("caps exhausted during BFS growth "
                                  "(retry with relaxed=True)")
    return Partition(labels, k)


def _reference_greedy_sequential_partition(
    graph: Hypergraph,
    k: int,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    rng: int | np.random.Generator | None = None,
    relaxed: bool = False,
) -> Partition:
    """Old :func:`greedy_sequential_partition` loop: re-reads the
    incidence row and indexes numpy scalars for every pin of every part.

    Retained as the oracle of the list-based loop (property test in
    ``tests/partitioners/test_heuristics.py``) and as the reference side
    of the ``greedy`` row in ``benchmarks/bench_kernels.py``.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    caps = weight_caps(graph, k, eps, relaxed=relaxed)
    labels = np.full(graph.n, -1, dtype=np.int64)
    pin_counts = np.zeros((graph.num_edges, k), dtype=np.int64)
    nonzero = np.zeros(graph.num_edges, dtype=np.int64)
    part_weight = np.zeros(k, dtype=np.float64)

    for v in gen.permutation(graph.n):
        w = graph.node_weights[v]
        best_b, best_key = -1, None
        for b in range(k):
            if gt(part_weight[b] + w, caps[b]):
                continue
            delta = 0.0
            for j in graph.incident_edges(v):
                j = int(j)
                if pin_counts[j, b] == 0 and nonzero[j] > 0:
                    if metric == Metric.CONNECTIVITY:
                        delta += graph.edge_weights[j]
                    elif nonzero[j] == 1:
                        delta += graph.edge_weights[j]
            key = (delta, float(part_weight[b]))
            if best_key is None or key < best_key:
                best_key, best_b = key, b
        if best_b < 0:
            raise InfeasibleError("no part can take node within caps "
                                  "(retry with relaxed=True)")
        labels[v] = best_b
        part_weight[best_b] += w
        for j in graph.incident_edges(v):
            j = int(j)
            if pin_counts[j, best_b] == 0:
                nonzero[j] += 1
            pin_counts[j, best_b] += 1
    return Partition(labels, k)
