"""Fiduccia–Mattheyses-style k-way refinement.

The paper's hardness results (Theorem 4.1) imply no polynomial algorithm
approximates balanced partitioning well — which is exactly why practice
relies on local-search heuristics like FM [45].  This implementation
refines a starting partition by single-node moves with best-prefix
rollback, supports both cost metrics, arbitrary ``k``, node weights
(needed on coarsened hypergraphs), per-part capacity caps, and locked
(fixed-colour) nodes as used by the reduction experiments.

:func:`fm_refine` keeps every node's per-part move deltas exact by delta
updates, as the k-way FM of KaHyPar does (Schlag et al., *High-Quality
Hypergraph Partitioning*).  The rows are filled in one batch at the
start of a pass.  A move of ``v`` from part ``a`` to part ``b`` then walks
``v``'s edges once; with the old counts ``ca = pc[e, a]`` and
``cb = pc[e, b]`` of an edge ``e`` of weight ``w_e``, the rows of the
other pins of ``e`` change only on these thresholds:

* connectivity —
  ``ca == 1``: ``+w_e`` on column ``a`` of every other pin (entering ``a``
  no longer adds ``e`` to it);
  ``cb == 0``: ``-w_e`` on column ``b`` of every other pin;
  ``ca == 2``: ``-w_e`` on the whole row of the one remaining ``a``-pin
  (moving it now takes ``e`` out of ``a``);
  ``cb == 1``: ``+w_e`` on the whole row of the former sole ``b``-pin;
* cut-net — on the same four thresholds, each other pin's ``k``-column
  contribution of ``e`` is replaced by its new one.  The contribution
  to column ``t`` is ``w_e * ([λ_e - leave + (pc[e, t] == 0) > 1] -
  [λ_e > 1])``, where ``leave`` is the pin's flag ``pc[e, own] == 1``.

Any other edge only updates its counts.  With integer-valued weights
every stored delta is an exact integer, so the rows equal fresh sums
bit for bit and the labels equal those of :func:`_reference_fm_refine`,
the per-node rating loop kept as the oracle, on both metrics.  With
float weights the sums are formed in another order and near-ties may
break differently.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array

from .. import instrument
from ..analyze import sanitize
from ..core import kernels
from ..core.cost import Metric
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..core.tolerance import ATOL, GAIN_ATOL, geq, gt, leq, lt
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
        delta of every (node, part) pair is summed into
        ``self.deltas[nodes]`` — the same sums ``best_move`` forms row
        by row: by a sparse product over the edges' empty parts for
        connectivity, by ``bincount`` for cut-net, whose terms depend on
        the pin.  The returned array holds each node's most-improving
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
        ew = g.edge_weights[inc]
        leaves = self.pin_counts[inc, own[owner]] == 1
        # delta[r, b] = per_part[r, b] - common[r], as in best_move
        if metric == Metric.CONNECTIVITY:
            common = np.bincount(owner, weights=ew * leaves, minlength=rows)
            # row r of the product sums its edges in incidence order,
            # the order bincount would add them in
            per_part = (csr_array((ew, inc, row_ptr),
                                  shape=(rows, g.num_edges))
                        @ (self.pin_counts == 0))
        else:  # CUT_NET
            pc = self.pin_counts[inc]                # (pins, k)
            nz = self.nonzero[inc]
            common = np.bincount(owner, weights=ew * (nz > 1),
                                 minlength=rows)
            terms = ew[:, None] * (((nz - leaves)[:, None] + (pc == 0)) > 1)
            cells = ((owner * k)[:, None] + np.arange(k)).ravel()
            per_part = np.bincount(cells, weights=terms.ravel(),
                                   minlength=rows * k).reshape(rows, k)
        deltas = per_part - common[:, None]
        self.deltas[nodes] = deltas
        feasible = leq(self.part_weight + g.node_weights[nodes][:, None], caps)
        feasible[np.arange(rows), own] = False
        return np.where(feasible, deltas, np.inf).min(axis=1)


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


def _rows(ptr: np.ndarray, idx: np.ndarray) -> list[list[int]]:
    """The rows of the CSR pair ``(ptr, idx)`` as plain lists."""
    flat = idx.tolist()
    bounds = ptr.tolist()
    return [flat[s:t] for s, t in zip(bounds, bounds[1:])]


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
    nodes never move (fixed-colour gadget nodes).  A call whose start
    breaks ``caps`` bumps the ``fm_infeasible_starts`` counter of
    :mod:`repro.instrument`.

    Gains live in per-node delta rows.  A pass starts with one batched
    ``_State.rate`` over all unlocked nodes; after that it runs on plain
    lists.  A move of ``v`` from ``a`` to ``b`` walks ``v``'s edges once and
    changes the rows of an edge's other pins only where the edge's old
    count ``ca`` in ``a`` is 1 or 2 or its old count ``cb`` in ``b`` is 0
    or 1 (the rules are in the module docstring); a whole-row change is
    kept as a per-node shift.  Rows, shifts and part weights change only
    when a node moves, so a node's target (the first cheapest part its
    weight fits into, with that delta) is scanned at most once per move
    and kept with the move count: every unlocked neighbour of ``v`` is
    scanned and pushed right after the move, and a popped node is
    re-checked against its kept target, scanned anew only if a move
    came after it.  Once the entries of moved nodes outnumber the
    others, the heap is rebuilt without them; a pop would only have
    skipped them, so every other pop is unchanged.  With integer-valued
    weights every row stays an exact integer sum, so the labels equal
    those of :func:`_reference_fm_refine` on both metrics; with float
    weights near-ties may break differently.
    """
    labels, k, caps, locked_base = _prepare(graph, partition, k, eps, caps,
                                            locked, relaxed)
    state = _State(graph, labels, k)
    n = graph.n
    # Classic FM slack: during a pass a part may exceed its cap by one
    # node, otherwise no single move is ever feasible at ε = 0.  Only
    # prefixes that end in a feasible (cap-respecting) state are kept.
    slack = float(graph.node_weights.max(initial=0.0))
    pass_caps = caps + slack
    free = np.flatnonzero(~locked_base)
    free_nodes = free.tolist()
    cut_net = metric == Metric.CUT_NET

    # Plain-list state of the pass loop.  During a pass it is the only
    # authoritative copy; ``state`` is refreshed from it after the pass,
    # before the next batched fill.
    ptr, pins = graph.csr()
    edge_pins = _rows(ptr, pins)
    node_edges = _rows(*graph.incidence())
    neighbours = _rows(*graph.adjacency())
    ew = graph.edge_weights.tolist()
    nw = graph.node_weights.tolist()
    pc = state.pin_counts.tolist()
    lab = state.labels.tolist()
    pw = state.part_weight.tolist()
    caps_list = caps.tolist()
    # leq(pw[t] + w, pass_caps[t]) with the right-hand side precomputed
    lim = (pass_caps + ATOL).tolist()
    w_min = min(nw, default=0.0)
    inf = math.inf
    # rows[u][t] - shift[u] is the delta of moving u to t (inf at u's part)
    rows: list[list[float]] = []
    shift: list[float] = []
    lam: list[int] = []             # λ of every edge; cut-net only
    # u's target, scanned after move number ``scanned[u]`` of the pass
    # and valid until the next move: part ``tb[u]`` (-1 if u fits into
    # none) at delta ``td[u]``
    scanned: list[int] = []
    tb = [-1] * n
    td = [0.0] * n
    parts_open: list[int] = []

    def feasible() -> bool:
        return all(map(leq, pw, caps_list))

    def open_parts() -> list[int]:
        # Float addition is monotone, so a part the lightest node does
        # not fit into fits no node: only these parts need a check.
        return [t for t in range(k) if pw[t] + w_min <= lim[t]]

    def move(v: int, b: int) -> None:
        """Move ``v`` to ``b`` and update the rows its edges' thresholds
        touch (``v``'s own row goes stale; ``v`` stays locked)."""
        a = lab[v]
        for e in node_edges[v]:
            pe = pc[e]
            ca = pe[a]
            cb = pe[b]
            pe[a] = ca - 1
            pe[b] = cb + 1
            if ca > 2 and cb > 1:
                continue
            we = ew[e]
            if cut_net:
                lam0 = lam[e]
                lam1 = lam[e] = lam0 - (ca == 1) + (cb == 0)
                # Contribution of e to column t of pin u's row:
                # we * ([s + (pc[e, t] == 0) > 1] - [lam > 1]), where s is
                # lam less u's leave flag (pc[e, own] == 1).
                h0 = lam0 > 1
                h1 = lam1 > 1
                for u in edge_pins[e]:
                    if u == v:
                        continue
                    o = lab[u]
                    if o == a:
                        s0, s1 = lam0, lam1 - (ca == 2)
                    elif o == b:
                        s0, s1 = lam0 - (cb == 1), lam1
                    else:
                        s0 = lam0 - (pe[o] == 1)
                        s1 = lam1 - (pe[o] == 1)
                    x0 = (s0 > 1) - h0      # where pc[e, t] > 0
                    y0 = (s0 >= 1) - h0     # where pc[e, t] == 0
                    x1 = (s1 > 1) - h1
                    y1 = (s1 >= 1) - h1
                    r = rows[u]
                    if x1 != x0 or y1 != y0:
                        for t in range(k):
                            if t != a and t != b:
                                c = y1 - y0 if pe[t] == 0 else x1 - x0
                                if c:
                                    r[t] += c * we
                    c = (y1 if ca == 1 else x1) - x0
                    if c:
                        r[a] += c * we
                    c = x1 - (y0 if cb == 0 else x0)
                    if c:
                        r[b] += c * we
                continue
            # entering a no longer adds e, entering b no longer saves it
            if ca == 1 and cb == 0:
                for u in edge_pins[e]:
                    r = rows[u]
                    r[a] += we
                    r[b] -= we
            elif ca == 1:
                for u in edge_pins[e]:
                    rows[u][a] += we
            elif cb == 0:
                for u in edge_pins[e]:
                    rows[u][b] -= we
            # the last a-pin now takes e out of a when it leaves, the old
            # sole b-pin no longer does: each shifts that pin's whole row
            if ca == 2:
                for u in edge_pins[e]:
                    if lab[u] == a and u != v:
                        shift[u] += we
                        break
            if cb == 1:
                for u in edge_pins[e]:
                    if lab[u] == b:
                        shift[u] -= we
                        break
        w = nw[v]
        pw[a] -= w
        pw[b] += w
        lab[v] = b

    def undo(v: int, a: int) -> None:
        """Move ``v`` back to ``a``: counts and weights only."""
        b = lab[v]
        for e in node_edges[v]:
            pe = pc[e]
            pe[b] -= 1
            pe[a] += 1
        w = nw[v]
        pw[b] -= w
        pw[a] += w
        lab[v] = a

    start_feasible = feasible()
    if not start_feasible:
        instrument.bump("fm_infeasible_starts")
    heappop, heappush = heapq.heappop, heapq.heappush
    tick = count()
    for _pass in range(max_passes):
        instrument.bump("fm_passes")
        locked_now = locked_base.tolist()
        best = state.rate(free, pass_caps, metric)
        rows = state.deltas.tolist()
        shift = [0.0] * n
        if cut_net:
            lam = state.nonzero.tolist()
        for v in free_nodes:
            rows[v][lab[v]] = inf
        heap = [(d, next(tick), v)
                for d, v in zip(best.tolist(), free_nodes) if d < inf]
        heapq.heapify(heap)
        # entries[v]: v's entries in the heap while v is unmoved; dead:
        # the entries of moved nodes, which a pop would only skip.
        entries = [0] * n
        for _, _, v in heap:
            entries[v] = 1
        dead = 0
        scanned = [-1] * n
        parts_open = open_parts()
        moves: list[tuple[int, int]] = []  # (node, previous part)
        moved = 0
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        while heap:
            d, _, v = heappop(heap)
            if locked_now[v]:
                dead -= 1
                continue
            entries[v] -= 1
            # the reference's re-check, scanning v's row only if a move
            # came after its last scan
            if scanned[v] != moved:
                scanned[v] = moved
                r = rows[v]
                w = nw[v]
                dv = inf
                for t in parts_open:
                    if r[t] < dv and pw[t] + w <= lim[t]:
                        dv, b = r[t], t
                if dv < inf:
                    tb[v] = b
                    td[v] = dv - shift[v]
                else:
                    tb[v] = -1
            b = tb[v]
            if b < 0:
                continue
            dv = td[v]
            if gt(dv, d, atol=GAIN_ATOL):
                heappush(heap, (dv, next(tick), v))
                entries[v] += 1
                continue
            moves.append((v, lab[v]))
            move(v, b)
            moved += 1
            parts_open = open_parts()
            locked_now[v] = True
            dead += entries[v]
            cum += dv
            if (lt(cum, best_cum, atol=GAIN_ATOL)
                    and (not start_feasible or feasible())):
                best_cum = cum
                best_len = moved
            # the same scan for every unlocked neighbour, kept with this
            # move's count (inline: it runs once per neighbour per move)
            for u in neighbours[v]:
                if locked_now[u]:
                    continue
                scanned[u] = moved
                r = rows[u]
                w = nw[u]
                du = inf
                for t in parts_open:
                    if r[t] < du and pw[t] + w <= lim[t]:
                        du, bu = r[t], t
                if du < inf:
                    du -= shift[u]
                    tb[u] = bu
                    td[u] = du
                    heappush(heap, (du, next(tick), u))
                    entries[u] += 1
                else:
                    tb[u] = -1
            if 2 * dead > len(heap):
                # Ticks are unique, so the heap order is total and
                # dropping dead entries changes no other pop.  Superseded
                # entries of unmoved nodes stay: their pops are the
                # reference's re-checks.
                heap = [e for e in heap if not locked_now[e[2]]]
                heapq.heapify(heap)
                dead = 0
        # Roll back past the best prefix, then hand the result to state.
        for v, prev in reversed(moves[best_len:]):
            undo(v, prev)
        touched = sorted({e for v, _ in moves[:best_len]
                          for e in node_edges[v]})
        if touched:
            state.pin_counts[touched] = [pc[e] for e in touched]
            state.nonzero[touched] = (state.pin_counts[touched] > 0).sum(
                axis=1)
        state.labels[:] = lab
        state.part_weight[:] = pw
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
    adjacency = _rows(*graph.adjacency())
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
