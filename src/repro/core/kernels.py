"""Vectorised CSR-native kernels — the performance layer of the library.

Every pin-level hot path (edge normalisation, CSR/incidence construction,
contraction with parallel-edge merging, λ counting, FM pin-count matrix
initialisation, neighbour-adjacency extraction) is implemented here as a
pure NumPy array program over the CSR arrays ``(edge_ptr, edge_pins)``:

* ``edge_ptr`` — ``int64[m + 1]``, monotone, ``edge_ptr[0] == 0``;
* ``edge_pins`` — ``int64[ρ]``; pins of hyperedge ``j`` are
  ``edge_pins[edge_ptr[j]:edge_ptr[j + 1]]``, strictly increasing
  (normalised: sorted, duplicate pins collapsed).

The original Python-loop implementations are retained as
``_reference_*`` oracles: the property-based tests in
``tests/core/test_kernels.py`` assert bit-for-bit agreement on random
hypergraphs, and ``benchmarks/bench_kernels.py`` times each kernel
against its oracle to track the perf trajectory (``BENCH_kernels.json``).

Design notes
------------
All kernels are O(ρ) or O(ρ log ρ) with small constants; none build
Python objects.  Ragged (per-edge / per-node) operations use the
standard CSR tricks: ``np.repeat``, or row ids
(``edge_ids_from_ptr``) and ``take``, for broadcasting per-row values
to pins, ``np.lexsort`` + run-boundary masks for per-row sort/dedup,
and offset arithmetic (``gather_rows``) for ragged gathers.  Row ids
and gather offsets come from one scatter into a pin-sized buffer and
one in-place prefix sum: ``np.repeat`` costs several times more per
pin on short rows.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import InvalidHypergraphError, ProblemTooLargeError

__all__ = [
    "normalize_edges",
    "check_csr",
    "gather_rows",
    "edge_ids_from_ptr",
    "degrees_from_pins",
    "incidence_from_csr",
    "contract_csr",
    "merge_parallel_csr",
    "lambda_counts",
    "pin_count_matrix",
    "adjacency_csr",
    "DEFAULT_PIN_COUNT_BUDGET_BYTES",
]

#: Memory budget for the dense FM ``(m, k)`` pin-count matrix.  The
#: refinement state is dense by design (O(1) gain updates); past this
#: budget we fail loudly instead of silently allocating gigabytes.
#: Override per-call or via the ``REPRO_PIN_COUNT_BUDGET_BYTES`` env var.
DEFAULT_PIN_COUNT_BUDGET_BYTES = 2**30


def edge_ids_from_ptr(ptr: np.ndarray) -> np.ndarray:
    """Edge id of every pin: ``[0]*s_0 + [1]*s_1 + ...`` for sizes s_j.

    The id of pin i counts the row starts at or before i: one
    ``bincount`` of the starts of the rows after the first (empty rows
    share a start, and a trailing one lands in a spare slot), then an
    in-place prefix sum.
    """
    total = int(ptr[-1])
    ids = np.bincount(ptr[1:-1], minlength=total + 1)
    np.add.accumulate(ids, out=ids)
    return ids[:total]


def gather_rows(ptr: np.ndarray, pins: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the pin rows ``rows`` (a ragged gather).

    Returns CSR arrays ``(new_ptr, new_pins)`` over ``len(rows)`` edges,
    preserving the order of ``rows``; rows may repeat, come in any order
    and be empty.  O(len(rows) + output pins), no Python loop, and
    nothing of size ``len(ptr)`` is touched.  The source index of each
    output pin is a running sum that steps by 1 inside a row and, at a
    row's first pin, jumps from the previous row's end to its start:
    one scatter of the jumps, one in-place prefix sum.
    """
    rows = np.asarray(rows, dtype=np.int64)
    jump = ptr[rows]
    end = ptr[1:][rows]
    new_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.subtract(end, jump, out=new_ptr[1:])
    np.add.accumulate(new_ptr[1:], out=new_ptr[1:])
    total = int(new_ptr[-1])
    if total == 0:
        return new_ptr, np.zeros(0, dtype=np.int64)
    # every slot starts at 1 and row r's first slot adds start_r -
    # end_{r-1} (end_{-1} = 1); an empty row starts where the next one
    # does, so the jumps are scatter-added (they telescope to start -
    # end of the last non-empty row), and the jumps of trailing empty
    # rows land in a spare slot past the end
    jump[1:] -= end[:-1]
    jump[0] -= 1
    idx = np.empty(total + 1, dtype=np.int64)
    idx.fill(1)
    np.add.at(idx, new_ptr[:-1], jump)
    np.add.accumulate(idx, out=idx)
    return new_ptr, pins.take(idx[:total])


def normalize_edges(lengths: np.ndarray, flat: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalise raw edges: per-edge sort + duplicate-pin collapse.

    ``lengths[j]`` is the raw size of edge ``j`` and ``flat`` the
    concatenation of all raw pins.  Validates pins against ``[0, n)``
    and returns normalised CSR arrays.  Replaces the per-edge
    ``tuple(sorted(set(...)))`` loop of ``Hypergraph.__init__``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    flat = np.asarray(flat, dtype=np.int64)
    m = lengths.shape[0]
    if flat.size and (int(flat.min()) < 0 or int(flat.max()) >= n):
        raw_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=raw_ptr[1:])
        bad = (flat < 0) | (flat >= n)
        j = int(np.searchsorted(raw_ptr, int(np.flatnonzero(bad)[0]),
                                side="right")) - 1
        pins = tuple(sorted(set(flat[raw_ptr[j]:raw_ptr[j + 1]].tolist())))
        raise InvalidHypergraphError(
            f"hyperedge {pins} has pins outside [0, {n})")
    eids = np.repeat(np.arange(m, dtype=np.int64), lengths)
    if flat.size and n and m < 2**62 // n:
        # Single-key sort on the encoded (edge, pin) code — roughly 2×
        # faster than the two-pass lexsort fallback.  The code is built
        # and sorted in the edge-id buffer, and the split writes the
        # edge ids back over the kept codes, so at most two pin-sized
        # arrays are live besides the input.
        codes, eids = eids, None
        codes *= n
        codes += flat
        codes.sort()
        keep = np.empty(codes.size, dtype=bool)
        keep[0] = True
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
        del keep
        se, sp = np.divmod(codes, n, out=(codes, np.empty_like(codes)))
    else:
        order = np.lexsort((flat, eids))
        se, sp = eids[order], flat[order]
        if sp.size:
            keep = np.empty(sp.size, dtype=bool)
            keep[0] = True
            np.logical_or(se[1:] != se[:-1], sp[1:] != sp[:-1], out=keep[1:])
            se, sp = se[keep], sp[keep]
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(se, minlength=m), out=ptr[1:])
    return ptr, sp


def check_csr(ptr: np.ndarray, pins: np.ndarray, n: int) -> None:
    """Validate normalised CSR arrays; raise :class:`InvalidHypergraphError`.

    Checks: monotone ``ptr`` starting at 0 and ending at ``len(pins)``,
    pins inside ``[0, n)``, and strictly increasing pins within each
    edge (the normalised form).  O(ρ), fully vectorised.
    """
    if ptr.ndim != 1 or ptr.size == 0 or int(ptr[0]) != 0 \
            or int(ptr[-1]) != pins.size or np.any(np.diff(ptr) < 0):
        raise InvalidHypergraphError("malformed edge_ptr array")
    if pins.size == 0:
        return
    if int(pins.min()) < 0 or int(pins.max()) >= n:
        raise InvalidHypergraphError(f"pins outside [0, {n})")
    inner = np.ones(pins.size, dtype=bool)
    starts = ptr[1:-1]  # positions that start a new edge (empty edges repeat)
    inner[starts[starts < pins.size]] = False
    if not np.all(np.diff(pins)[inner[1:]] > 0):
        raise InvalidHypergraphError(
            "edge pins are not strictly increasing (unnormalised CSR)")


def degrees_from_pins(pins: np.ndarray, n: int) -> np.ndarray:
    """Degree of every node (number of incident hyperedges)."""
    return np.bincount(pins, minlength=n).astype(np.int64)


def _stable_argsort(keys: np.ndarray, top: int,
                    order: np.ndarray | None = None) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, top]``.

    Least-significant-digit radix: one stable ``argsort`` per 16 bits of
    ``top``, each on ``uint16`` digits, which NumPy runs as a counting
    sort instead of a comparison sort on int64.  A stable sort has
    exactly one output permutation, so the result is the same.  Given
    ``order``, it sorts ``keys[order]`` stably and returns the composed
    permutation, so calls on successive keys, least significant first,
    give the permutation of ``np.lexsort``.
    """
    for shift in range(0, max(int(top), 1).bit_length(), 16):
        # casting to uint16 keeps the low 16 bits of a non-negative key
        digit = ((keys if order is None else keys[order])
                 >> shift).astype(np.uint16)
        step = np.argsort(digit, kind="stable")
        order = step if order is None else order[step]
    return order


def incidence_from_csr(ptr: np.ndarray, pins: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node→edge incidence CSR ``(node_ptr, node_edges)``.

    A stable counting sort of pins (``_stable_argsort``), so each node's
    incident edge ids come out in increasing edge order — identical to
    the reference fill.
    """
    node_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pins, minlength=n), out=node_ptr[1:])
    order = _stable_argsort(pins, int(n) - 1)
    return node_ptr, edge_ids_from_ptr(ptr)[order]


def contract_csr(ptr: np.ndarray, pins: np.ndarray, mapping: np.ndarray,
                 num_groups: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contract pins through ``mapping``; drop edges with < 2 distinct pins.

    Returns ``(new_ptr, new_pins, kept)`` where ``kept`` holds the
    original ids of the surviving edges (for edge-weight gathering).
    Image pins are sorted and deduplicated per edge — the sort/unique
    over encoded pin rows that replaces the tuple-of-set Python loop.
    """
    ptr2, pins2 = normalize_edges(np.diff(ptr), mapping[pins], num_groups)
    sizes2 = np.diff(ptr2)
    survive = sizes2 >= 2
    kept = np.flatnonzero(survive)
    new_ptr = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(sizes2[kept], out=new_ptr[1:])
    return new_ptr, pins2[np.repeat(survive, sizes2)], kept


def _pack_rows(rows: np.ndarray, bits: int) -> list[np.ndarray]:
    """Pack each row of small ints into as few int64 sort keys as possible."""
    per_key = max(1, 62 // bits)
    keys = []
    for lo in range(0, rows.shape[1], per_key):
        chunk = rows[:, lo:lo + per_key]
        key = chunk[:, 0].astype(np.int64, copy=True)
        for c in range(1, chunk.shape[1]):
            key <<= bits
            key |= chunk[:, c]
        keys.append(key)
    return keys


def merge_parallel_csr(
    ptr: np.ndarray, pins: np.ndarray, edge_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse identical hyperedges, summing weights.

    Returns ``(new_ptr, new_pins, new_weights, first_ids)`` with one
    edge per distinct pin row, in order of first occurrence (matching
    the dict-based reference); ``first_ids`` are the original ids of
    the representatives.  Rows are grouped size-class by size-class:
    one stable radix sort of the edge sizes lists each class's edges in
    id order, their rows are gathered and bit-packed into a few int64
    keys, a sort brings identical rows together, run boundaries delimit
    the groups.
    """
    m = ptr.shape[0] - 1
    sizes = np.diff(ptr)
    rep = np.arange(m, dtype=np.int64)
    bits = max(1, int(pins.max()).bit_length()) if pins.size else 1
    by_size = _stable_argsort(sizes, int(sizes.max()) if m else 0)
    sorted_sizes = sizes[by_size]
    starts = np.flatnonzero(np.r_[True, sorted_sizes[1:] != sorted_sizes[:-1]])
    ends = np.r_[starts[1:], m]
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        if hi - lo <= 1:
            continue
        idx = by_size[lo:hi]
        s = int(sorted_sizes[lo])
        if s == 0:
            rep[idx] = idx[0]
            continue
        rows = gather_rows(ptr, pins, idx)[1].reshape(-1, s)
        keys = _pack_rows(rows, bits)
        del rows
        if len(keys) == 1:
            order = np.argsort(keys[0])
        else:
            # np.lexsort's permutation, by radix passes over each key
            order = None
            for key in keys:
                order = _stable_argsort(key, int(key.max()), order)
        sk = [key[order] for key in keys]
        bound = np.empty(idx.size, dtype=bool)
        bound[0] = True
        bound[1:] = sk[0][1:] != sk[0][:-1]
        for key in sk[1:]:
            bound[1:] |= key[1:] != key[:-1]
        # representative of each group = smallest original edge id in it
        orig = idx[order]
        group_rep = np.minimum.reduceat(orig, np.flatnonzero(bound))
        rep[orig] = group_rep[np.cumsum(bound) - 1]
    # the representatives are exactly the edges that represent
    # themselves; a scatter numbers them, a gather maps every edge
    first_ids = np.flatnonzero(rep == np.arange(m, dtype=np.int64))
    slot = np.empty(m, dtype=np.int64)
    slot[first_ids] = np.arange(first_ids.size, dtype=np.int64)
    weights = np.bincount(slot[rep], weights=np.asarray(edge_weights,
                                                       dtype=np.float64))
    new_ptr, new_pins = gather_rows(ptr, pins, first_ids)
    return new_ptr, new_pins, weights, first_ids


def lambda_counts(ptr: np.ndarray, pins: np.ndarray, labels: np.ndarray,
                  k: int) -> np.ndarray:
    """λ_e per hyperedge: number of distinct parts its pins touch."""
    m = ptr.shape[0] - 1
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    codes = np.sort(edge_ids_from_ptr(ptr) * k + labels[pins])
    if codes.size == 0:
        return np.zeros(m, dtype=np.int64)
    keep = np.empty(codes.size, dtype=bool)
    keep[0] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return np.bincount(codes[keep] // k, minlength=m).astype(np.int64)


def _pin_count_budget() -> int:
    # repro: allow[determinism] — a memory guard, not a result input:
    # the env var only moves the allocation-refusal threshold, and the
    # values computed under any budget are identical.
    raw = os.environ.get("REPRO_PIN_COUNT_BUDGET_BYTES", "")
    return int(raw) if raw.isdigit() else DEFAULT_PIN_COUNT_BUDGET_BYTES


def pin_count_matrix(ptr: np.ndarray, pins: np.ndarray, labels: np.ndarray,
                     k: int, budget_bytes: int | None = None) -> np.ndarray:
    """Dense ``(m, k)`` int32 pin-count matrix for FM refinement.

    ``out[j, p]`` = number of pins of edge ``j`` in part ``p``.  Refuses
    to allocate past ``budget_bytes`` (default
    :data:`DEFAULT_PIN_COUNT_BUDGET_BYTES`, env-overridable) — a clear
    error instead of silently eating gigabytes at large ``k``.
    """
    m = ptr.shape[0] - 1
    if budget_bytes is None:
        budget_bytes = _pin_count_budget()
    needed = m * k * np.dtype(np.int32).itemsize
    if needed > budget_bytes:
        fmt = lambda b: (f"{b / 2**20:.1f} MiB" if b >= 2**20 else f"{b} B")
        raise ProblemTooLargeError(
            f"FM pin-count matrix of shape ({m}, {k}) needs {fmt(needed)} "
            f"(> budget {fmt(budget_bytes)}); reduce k, coarsen the "
            f"hypergraph first, or raise REPRO_PIN_COUNT_BUDGET_BYTES")
    # repro: bounds(len(codes) <= 1e7, k <= 4096)
    # Proof obligation for the int32 cast below: each count is at most
    # the number of pins (ROADMAP scale target 10^7), far under 2**31.
    codes = edge_ids_from_ptr(ptr) * k + labels[pins]
    return (np.bincount(codes, minlength=m * k)
            .reshape(m, k).astype(np.int32))


def adjacency_csr(ptr: np.ndarray, pins: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour CSR ``(adj_ptr, adj_nodes)``: nodes sharing a hyperedge.

    Materialises all within-edge (owner, neighbour) pairs — Σ|e|² of
    them — then sorts/dedups via encoded codes.  Neighbours of ``v``
    come out sorted; self-pairs are excluded.  The dedup is a sort and
    a neighbour compare: ``np.unique`` took 6-10x as long on the same
    codes (56-1 180 nodes, 5-22 k pairs, NumPy 2.4).
    """
    sizes = np.diff(ptr)
    if pins.size == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    m = ptr.shape[0] - 1
    sq = sizes * sizes
    owners = np.repeat(pins, np.repeat(sizes, sizes))
    off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sq, out=off[1:])
    total = int(off[-1])
    block = np.repeat(np.arange(m, dtype=np.int64), sq)
    t_local = np.arange(total, dtype=np.int64) - off[block]
    cand = pins[ptr[block] + t_local % sizes[block]]
    mask = owners != cand
    codes = np.sort(owners[mask] * np.int64(n) + cand[mask])
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    codes = codes[keep]
    adj_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes // n, minlength=n), out=adj_ptr[1:])
    return adj_ptr, codes % n


# ---------------------------------------------------------------------------
# Reference oracles — the original Python-loop implementations, kept for
# property-based equivalence tests and the bench_kernels.py baselines.
# ---------------------------------------------------------------------------

def _reference_normalize(edges, n):
    """Old ``Hypergraph.__init__`` normalisation loop."""
    normalized = []
    for e in edges:
        pins = tuple(sorted(set(int(v) for v in e)))
        if pins and (pins[0] < 0 or pins[-1] >= n):
            raise InvalidHypergraphError(
                f"hyperedge {pins} has pins outside [0, {n})")
        normalized.append(pins)
    return normalized


def _reference_csr(edges):
    """Old ``Hypergraph.csr`` fill loop (edges already normalised)."""
    sizes = np.fromiter((len(e) for e in edges), dtype=np.int64,
                        count=len(edges))
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    pins = np.empty(int(ptr[-1]), dtype=np.int64)
    for j, e in enumerate(edges):
        pins[ptr[j]:ptr[j + 1]] = e
    return ptr, pins


def _reference_degrees(edges, n):
    """Old ``Hypergraph.degrees`` loop."""
    deg = np.zeros(n, dtype=np.int64)
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def _reference_incidence(edges, n):
    """Old ``Hypergraph.incidence`` fill loop."""
    deg = _reference_degrees(edges, n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    out = np.empty(int(ptr[-1]), dtype=np.int64)
    fill = ptr[:-1].copy()
    for j, e in enumerate(edges):
        for v in e:
            out[fill[v]] = j
            fill[v] += 1
    return ptr, out


def _reference_contract(edges, mapping):
    """Old ``Hypergraph.contract`` edge-image loop; returns (edges, kept)."""
    new_edges, kept = [], []
    for j, e in enumerate(edges):
        img = tuple(sorted(set(int(mapping[v]) for v in e)))
        if len(img) >= 2:
            new_edges.append(img)
            kept.append(j)
    return new_edges, kept


def _reference_merge_parallel(edges, edge_weights):
    """Old ``Hypergraph.merge_parallel_edges`` dict loop."""
    agg, order = {}, []
    for j, e in enumerate(edges):
        if e not in agg:
            agg[e] = 0.0
            order.append(e)
        agg[e] += float(edge_weights[j])
    return order, [agg[e] for e in order]


def _reference_lambdas(edges, labels, k):
    """Per-edge distinct-part counting, plain loop."""
    lam = np.zeros(len(edges), dtype=np.int64)
    for j, e in enumerate(edges):
        lam[j] = len({int(labels[v]) for v in e})
    return lam


def _reference_pin_counts(edges, labels, k):
    """Old FM ``_State.__init__`` pin-count fill loop."""
    counts = np.zeros((len(edges), k), dtype=np.int64)
    for j, e in enumerate(edges):
        for v in e:
            counts[j, labels[v]] += 1
    return counts


def _reference_adjacency(edges, n):
    """Old FM ``_adjacency`` set loop; returns per-node sorted tuples."""
    out = [set() for _ in range(n)]
    for e in edges:
        for v in e:
            out[v].update(e)
    return [tuple(sorted(s - {v})) for v, s in enumerate(out)]


def _reference_edge_ids(ptr):
    """Plain-loop pin→edge-id expansion (``edge_ids_from_ptr`` oracle)."""
    out: list[int] = []
    for j in range(len(ptr) - 1):
        out.extend([j] * int(ptr[j + 1] - ptr[j]))
    return np.asarray(out, dtype=np.int64)


def _reference_gather_rows(ptr, pins, rows):
    """Plain-loop ragged gather (``gather_rows`` oracle)."""
    chunks = [pins[int(ptr[r]):int(ptr[r + 1])] for r in rows]
    new_ptr = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum(np.asarray([len(c) for c in chunks], dtype=np.int64),
              out=new_ptr[1:])
    if not chunks:
        return new_ptr, np.zeros(0, dtype=np.int64)
    return new_ptr, np.concatenate(chunks).astype(np.int64)


def _reference_check_csr(ptr, pins, n):
    """Plain-loop CSR validation (``check_csr`` oracle)."""
    ptr = np.asarray(ptr)
    pins = np.asarray(pins)
    if ptr.ndim != 1 or ptr.size == 0 or int(ptr[0]) != 0 \
            or int(ptr[-1]) != pins.size:
        raise InvalidHypergraphError("malformed edge_ptr array")
    for j in range(ptr.size - 1):
        if ptr[j + 1] < ptr[j]:
            raise InvalidHypergraphError("malformed edge_ptr array")
        row = pins[int(ptr[j]):int(ptr[j + 1])].tolist()
        for v in row:
            if v < 0 or v >= n:
                raise InvalidHypergraphError(f"pins outside [0, {n})")
        if any(b <= a for a, b in zip(row, row[1:])):
            raise InvalidHypergraphError(
                "edge pins are not strictly increasing (unnormalised CSR)")
