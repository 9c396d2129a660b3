"""Fiduccia–Mattheyses-style k-way refinement.

The paper's hardness results (Theorem 4.1) imply no polynomial algorithm
approximates balanced partitioning well — which is exactly why practice
relies on local-search heuristics like FM [45].  This implementation
refines a starting partition by single-node moves with best-prefix
rollback, supports both cost metrics, arbitrary ``k``, node weights
(needed on coarsened hypergraphs), per-part capacity caps, and locked
(fixed-colour) nodes as used by the reduction experiments.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Sequence

import numpy as np

from .. import instrument
from ..analyze import sanitize
from ..core import kernels
from ..core.cost import Metric
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..core.tolerance import GAIN_ATOL, geq, gt, leq, lt
from .base import weight_caps

__all__ = ["fm_refine", "fm_bipartition_refine"]


class _State:
    """Incremental pin-count bookkeeping for single-node moves."""

    def __init__(self, graph: Hypergraph, labels: np.ndarray, k: int) -> None:
        self.graph = graph
        self.k = k
        self.labels = labels
        ptr, pins = graph.csr()
        # int32 halves the footprint of the dense (m, k) matrix; the
        # kernel raises ProblemTooLargeError past its memory budget
        # instead of silently allocating gigabytes at large k.
        self.pin_counts = kernels.pin_count_matrix(ptr, pins, labels, k)
        self.nonzero = (self.pin_counts > 0).sum(axis=1)
        self.part_weight = np.zeros(k, dtype=np.float64)
        np.add.at(self.part_weight, labels, graph.node_weights)
        # Raw per-part move deltas, one row per node, filled by ``rate``.
        self.deltas = np.zeros((graph.n, k), dtype=np.float64)

    def move_delta(self, v: int, b: int, metric: Metric) -> float:
        """Cost change of moving node ``v`` to part ``b`` (negative = better)."""
        a = int(self.labels[v])
        if a == b:
            return 0.0
        delta = 0.0
        g = self.graph
        for j in g.incident_edges(v):
            j = int(j)
            ca = self.pin_counts[j, a]
            cb = self.pin_counts[j, b]
            if metric == Metric.CONNECTIVITY:
                if ca == 1:
                    delta -= g.edge_weights[j]
                if cb == 0:
                    delta += g.edge_weights[j]
            else:  # CUT_NET
                nz = self.nonzero[j]
                nz_after = nz - (1 if ca == 1 else 0) + (1 if cb == 0 else 0)
                delta += g.edge_weights[j] * ((1 if nz_after > 1 else 0)
                                              - (1 if nz > 1 else 0))
        return float(delta)

    def apply(self, v: int, b: int) -> None:
        a = int(self.labels[v])
        # a node's incident edges are distinct: gather their rows, move
        # one pin from a to b, scatter them back
        inc = self.graph.incident_edges(v)
        rows = self.pin_counts[inc]
        rows[:, a] -= 1
        rows[:, b] += 1
        self.pin_counts[inc] = rows
        self.nonzero[inc] = (rows > 0).sum(axis=1)
        w = self.graph.node_weights[v]
        self.part_weight[a] -= w
        self.part_weight[b] += w
        self.labels[v] = b

    def best_move(self, v: int, caps: np.ndarray, metric: Metric) -> tuple[float, int] | None:
        """Most-improving feasible move for ``v``: ``(delta, target)``.

        Vectorised over all k targets: the per-edge pin-count rows of
        ``v``'s incident hyperedges are gathered once and the move delta
        for every target part computed with array ops.  This is the
        one-node rating of :func:`_reference_fm_refine`; ``rate`` forms
        the same sums for a batch of nodes.
        """
        a = int(self.labels[v])
        w = self.graph.node_weights[v]
        feasible = leq(self.part_weight + w, caps)
        feasible[a] = False
        if not feasible.any():
            return None
        inc = self.graph.incident_edges(v)
        if inc.size == 0:
            b = int(np.flatnonzero(feasible)[0])
            return (0.0, b)
        pc = self.pin_counts[inc]                    # (deg, k)
        ew = self.graph.edge_weights[inc]            # (deg,)
        if metric == Metric.CONNECTIVITY:
            remove_gain = float(ew[pc[:, a] == 1].sum())
            add_cost = ew @ (pc == 0)                # (k,)
            deltas = add_cost - remove_gain
        else:  # CUT_NET
            nz = self.nonzero[inc]
            before = ew @ (nz > 1)
            leaves = (pc[:, a] == 1)
            after_nz = (nz - leaves)[:, None] + (pc == 0)
            deltas = ew @ (after_nz > 1) - before
        deltas = np.where(feasible, deltas, np.inf)
        b = int(np.argmin(deltas))
        if not np.isfinite(deltas[b]):
            return None
        return (float(deltas[b]), b)

    def rate(self, nodes: np.ndarray, caps: np.ndarray,
             metric: Metric) -> np.ndarray:
        """Re-rate ``nodes`` in one batch; return each one's best delta.

        The incidence rows of ``nodes`` are gathered once and the move
        delta of every (node, part) pair is summed by ``bincount`` into
        ``self.deltas[nodes]`` — the same sums ``best_move`` forms row
        by row.  The returned array holds each node's most-improving
        delta over the parts it may enter under ``caps`` (``inf`` where
        none is feasible).
        """
        g = self.graph
        k = self.k
        rows = nodes.size
        node_ptr, node_edges = g.incidence()
        row_ptr, inc = kernels.gather_rows(node_ptr, node_edges, nodes)
        owner = np.repeat(np.arange(rows), row_ptr[1:] - row_ptr[:-1])
        own = self.labels[nodes]
        pc = self.pin_counts[inc]                    # (pins, k)
        ew = g.edge_weights[inc]
        leaves = self.pin_counts[inc, own[owner]] == 1
        cells = ((owner * k)[:, None] + np.arange(k)).ravel()
        # delta[r, b] = per_part[r, b] - common[r], as in best_move
        if metric == Metric.CONNECTIVITY:
            common = np.bincount(owner, weights=ew * leaves, minlength=rows)
            per_part = ew[:, None] * (pc == 0)
        else:  # CUT_NET
            nz = self.nonzero[inc]
            common = np.bincount(owner, weights=ew * (nz > 1),
                                 minlength=rows)
            per_part = ew[:, None] * (((nz - leaves)[:, None] + (pc == 0))
                                      > 1)
        deltas = (np.bincount(cells, weights=per_part.ravel(),
                              minlength=rows * k).reshape(rows, k)
                  - common[:, None])
        self.deltas[nodes] = deltas
        feasible = leq(self.part_weight + g.node_weights[nodes][:, None], caps)
        feasible[np.arange(rows), own] = False
        return np.where(feasible, deltas, np.inf).min(axis=1)

    def cached_move(self, v: int, caps: np.ndarray) -> tuple[float, int] | None:
        """``best_move`` from the deltas ``rate`` last stored for ``v``.

        Exact as long as ``v`` was re-rated after the last move of any
        node it shares a hyperedge with: only such moves change the
        pin-count rows its deltas are summed from.
        """
        feasible = leq(self.part_weight + self.graph.node_weights[v], caps)
        feasible[self.labels[v]] = False
        deltas = np.where(feasible, self.deltas[v], np.inf)
        b = int(deltas.argmin())
        d = float(deltas[b])
        return (d, b) if math.isfinite(d) else None


def _adjacency(graph: Hypergraph) -> list[np.ndarray]:
    """Per-node neighbour arrays (nodes sharing a hyperedge), computed
    once per refinement call via the vectorised pair-expansion kernel."""
    ptr, pins = graph.csr()
    adj_ptr, adj_nodes = kernels.adjacency_csr(ptr, pins, graph.n)
    return [adj_nodes[adj_ptr[v]:adj_ptr[v + 1]] for v in range(graph.n)]


def _prepare(graph, partition, k, eps, caps, locked, relaxed):
    """Normalise ``fm_refine`` inputs to ``(labels, k, caps, locked)``."""
    if isinstance(partition, Partition):
        labels = partition.labels.copy()
        k = partition.k
    else:
        if k is None:
            raise ValueError("k required for raw label vectors")
        labels = np.asarray(partition, dtype=np.int64).copy()
    if caps is None:
        caps = weight_caps(graph, k, eps, relaxed=relaxed)
    locked_base = np.zeros(graph.n, dtype=bool)
    if locked is not None:
        locked_base[np.asarray(list(locked), dtype=np.int64)] = True
    return labels, k, caps, locked_base


def fm_refine(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    k: int | None = None,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    caps: np.ndarray | None = None,
    max_passes: int = 8,
    locked: Sequence[int] | None = None,
    relaxed: bool = False,
) -> Partition:
    """Refine a partition by FM-style passes.

    Each pass moves every node at most once, always applying the
    currently best-gain feasible move (negative gains allowed, the
    classic hill-escape), then rolls back to the best prefix.  Passes
    repeat until no strict improvement or ``max_passes``.

    ``caps`` overrides the default ε-balance weight capacities — the
    recursive partitioner uses this for uneven target sizes.  ``locked``
    nodes never move (fixed-colour gadget nodes).

    Gains are kept in a per-node delta cache: the pass-start heap fill
    and the re-rating of a moved node's unlocked neighbours are each one
    batched ``_State.rate``, and a popped node is re-checked from its
    stored row against the current part weights.  The move sequence is
    that of :func:`_reference_fm_refine`, which rates node by node.
    """
    labels, k, caps, locked_base = _prepare(graph, partition, k, eps, caps,
                                            locked, relaxed)
    state = _State(graph, labels, k)
    adjacency = _adjacency(graph)
    # Classic FM slack: during a pass a part may exceed its cap by one
    # node, otherwise no single move is ever feasible at ε = 0.  Only
    # prefixes that end in a feasible (cap-respecting) state are kept.
    slack = float(graph.node_weights.max(initial=0.0))
    pass_caps = caps + slack

    def feasible() -> bool:
        return bool(np.all(leq(state.part_weight, caps)))

    def push(heap: list, nodes: np.ndarray) -> None:
        best = state.rate(nodes, pass_caps, metric)
        ok = np.isfinite(best)
        for d, v in zip(best[ok].tolist(), nodes[ok].tolist()):
            heapq.heappush(heap, (d, next(tick), v))

    start_feasible = feasible()
    tick = count()
    for _pass in range(max_passes):
        instrument.bump("fm_passes")
        locked_now = locked_base.copy()
        heap: list[tuple[float, int, int]] = []
        push(heap, np.flatnonzero(~locked_now))
        moves: list[tuple[int, int]] = []  # (node, previous part)
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        while heap:
            d, _, v = heapq.heappop(heap)
            if locked_now[v]:
                continue
            mv = state.cached_move(v, pass_caps)
            if mv is None:
                continue
            if gt(mv[0], d, atol=GAIN_ATOL):
                heapq.heappush(heap, (mv[0], next(tick), v))
                continue
            d, b = mv
            moves.append((v, int(state.labels[v])))
            state.apply(v, b)
            locked_now[v] = True
            cum += d
            acceptable = feasible() or not start_feasible
            if acceptable and lt(cum, best_cum, atol=GAIN_ATOL):
                best_cum = cum
                best_len = len(moves)
            nbrs = adjacency[v]
            nbrs = nbrs[~locked_now[nbrs]]
            if nbrs.size:
                push(heap, nbrs)
        # Roll back past the best prefix.
        for v, prev in reversed(moves[best_len:]):
            state.apply(v, prev)
        if geq(best_cum, 0.0, atol=GAIN_ATOL):
            break
    if sanitize.ENABLED:
        sanitize.check_partition(graph, state.labels, k, where="fm_refine")
    return Partition(state.labels, k)


def _reference_fm_refine(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    k: int | None = None,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    caps: np.ndarray | None = None,
    max_passes: int = 8,
    locked: Sequence[int] | None = None,
    relaxed: bool = False,
) -> Partition:
    """Old ``fm_refine`` pass loop: every rating is a scalar ``best_move``.

    Retained as the oracle of :func:`fm_refine` (property tests in
    ``tests/partitioners/test_heuristics.py``) and as the reference side
    of the ``heap_fm`` row in ``benchmarks/bench_kernels.py``.
    """
    labels, k, caps, locked_base = _prepare(graph, partition, k, eps, caps,
                                            locked, relaxed)
    state = _State(graph, labels, k)
    adjacency = _adjacency(graph)
    slack = float(graph.node_weights.max(initial=0.0))
    pass_caps = caps + slack

    def feasible() -> bool:
        return bool(np.all(leq(state.part_weight, caps)))

    start_feasible = feasible()
    tick = count()
    for _pass in range(max_passes):
        locked_now = locked_base.copy()
        heap: list[tuple[float, int, int]] = []
        for v in range(graph.n):
            if locked_now[v]:
                continue
            mv = state.best_move(v, pass_caps, metric)
            if mv is not None:
                heapq.heappush(heap, (mv[0], next(tick), v))
        moves: list[tuple[int, int]] = []
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        while heap:
            d, _, v = heapq.heappop(heap)
            if locked_now[v]:
                continue
            mv = state.best_move(v, pass_caps, metric)
            if mv is None:
                continue
            if gt(mv[0], d, atol=GAIN_ATOL):
                heapq.heappush(heap, (mv[0], next(tick), v))
                continue
            d, b = mv
            moves.append((v, int(state.labels[v])))
            state.apply(v, b)
            locked_now[v] = True
            cum += d
            acceptable = feasible() or not start_feasible
            if acceptable and lt(cum, best_cum, atol=GAIN_ATOL):
                best_cum = cum
                best_len = len(moves)
            for u in adjacency[v]:
                if not locked_now[u]:
                    umv = state.best_move(u, pass_caps, metric)
                    if umv is not None:
                        heapq.heappush(heap, (umv[0], next(tick), u))
        for v, prev in reversed(moves[best_len:]):
            state.apply(v, prev)
        if geq(best_cum, 0.0, atol=GAIN_ATOL):
            break
    return Partition(state.labels, k)


def fm_bipartition_refine(
    graph: Hypergraph,
    partition: Partition | Sequence[int] | np.ndarray,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    **kwargs,
) -> Partition:
    """Convenience wrapper: 2-way FM refinement."""
    return fm_refine(graph, partition, k=2, eps=eps, metric=metric, **kwargs)
