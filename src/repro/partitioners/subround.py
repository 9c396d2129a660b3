"""Deterministic intra-V-cycle parallelism via synchronous sub-rounds.

Gottesbüren et al. (PAPERS.md, *Deterministic Parallel Hypergraph
Partitioning*) parallelise coarsening and refinement *inside* one
V-cycle without giving up reproducibility: candidate decisions are
grouped into synchronous sub-rounds, a pure *stage* function rates every
candidate against a snapshot of the decision state, and the parent
applies all decisions with ties broken by (rating, vertex id).  This
module implements that scheme on shared-memory CSR buffers:

* every per-node computation (cluster-join proposals, FM gains) is a
  pure function of the snapshot, so splitting the node set into chunks
  — serially or across worker processes — cannot change any output;
* per-(node, cluster) rating sums are accumulated in incidence order
  — via a sort that keeps equal keys in order + ``reduceat``
  (clustering), or a CSR × dense product whose rows list each node's
  incidences in order (FM gains) — so float summation order is
  chunk-boundary independent;
* all state mutation happens in the parent between stages.

Consequence: ``multilevel_partition(seed=s, n_jobs=j)`` is
bitwise-identical for every ``j``, which the determinism tests and the
``--suite scale`` bench gate both assert.

Workers are forked once per V-cycle (:class:`RoundPool`), attach each
level's :class:`~repro.core.shm.SharedCSR` by name, and receive only
node-id chunks over the pipe — never a pickled hypergraph.
"""

from __future__ import annotations

import traceback

import numpy as np
from scipy.sparse import csr_array

from .. import instrument
from ..analyze import sanitize
from ..core import kernels
from ..core.cost import Metric
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..core.shm import SharedArrays, SharedCSR
from ..core.tolerance import leq
from ..core.workers import Workers, peak_rss_bytes
from ..errors import WorkerPoolError

__all__ = ["RoundPool", "subround_coarsen_step", "subround_fm_refine"]

# Target shrink factor per coarsening level and the slack multiple of
# the level-average cluster weight a single cluster may reach.  The
# caller ramps the per-level cap as SLACK * SHRINK^(level+1) * avg0 —
# the KaHyPar line uses the same shape of bound to keep coarsening
# balanced instead of letting a few clusters eat their neighbourhoods.
SHRINK_TARGET = 2.5
CLUSTER_SLACK = 3.0
# Number of synchronous sub-rounds per clustering / refinement round.
# More sub-rounds = fresher state between decisions (better quality),
# fewer = larger parallel stages (better scaling); 8 is the KaHyPar-D
# neighbourhood.  Tiny graphs collapse to one sub-round.
_NUM_SUBROUNDS = 8
# Rounds of sub-round FM per refinement call; a round that improves
# nothing ends the call earlier.
_FM_MAX_ROUNDS = 8
# Use pool workers only when a level is big enough that the stage work
# dwarfs one pipe round-trip (~100 us) per worker.
POOL_MIN_PINS = 65_536
# ... and only for stages with enough items that per-item work (a few
# hundred ns each after vectorisation) beats the dispatch overhead;
# smaller stages run inline in the parent on the same shared arrays.
_POOL_MIN_ITEMS = 4096
# Serial stages are chunked too (bounds peak temporaries; the results
# are chunk-independent by construction so this is free).
_SERIAL_CHUNK = 1 << 18
# Bit budget of propose's packed (owner, cluster, incidence) sort key: a
# non-negative int64.  One mover always fits (n and its degree < 2^31).
_PACK_BITS = 63
# Floating-point slack for "strictly improving" decisions, mirroring
# fm.GAIN_ATOL: gains are sums of edge weights, so exact zeros dominate
# and anything beyond 1e-9 is a real improvement on sane weights.
_GAIN_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Stage functions — pure per-node computations over a state snapshot.
# Everything below reads the view and writes nothing; the fork-safety
# pass checks this (workers execute these via ``_pool_worker_main``).
# ---------------------------------------------------------------------------

class _LevelView:
    """One level's CSR arrays + mutable decision state, as seen by a stage.

    In the parent (serial path) the arrays are the graph's own; in a
    worker they are zero-copy views into the shared segments.
    """

    __slots__ = ("ptr", "pins", "node_ptr", "node_edges", "nw", "ew",
                 "state", "_escore")

    def __init__(self, ptr, pins, node_ptr, node_edges, nw, ew, state):
        self.ptr = ptr
        self.pins = pins
        self.node_ptr = node_ptr
        self.node_edges = node_edges
        self.nw = nw
        self.ew = ew
        self.state = state
        self._escore = None

    @property
    def escore(self) -> np.ndarray:
        """Heavy-pin score each edge contributes to a co-pin pair."""
        if self._escore is None:
            sizes = np.diff(self.ptr)
            self._escore = np.where(
                sizes > 1, self.ew / np.maximum(sizes - 1, 1), 0.0)
        return self._escore


def _stage_propose(view: _LevelView, chunk: np.ndarray, extra) -> tuple:
    """Best cluster to join for every (singleton) mover in ``chunk``.

    Rating of mover v joining cluster C is the heavy-pin score
    Σ_{e ∋ v} w_e/(|e|−1) · |pins(e) ∩ C|, accumulated per (owner,
    cluster) in the owner's incidence order.  An incidence whose edge
    scores 0 makes no pair, so it is dropped before its pins are
    gathered, and the (mover, pin) pairs are filtered once, into
    positions: every pair-sized array is built once and read by
    ``take``.  The kept pairs are grouped by one ``np.sort`` of the
    (owner, cluster) key with the pair's incidence position packed into
    its low bits.  Within a key the positions then ascend as the pairs
    do, and pairs sharing a position share their score, so ``reduceat``
    adds the same terms in the same order as after a stable sort of the
    key alone, under any chunking.  A chunk whose packed key would pass
    ``_PACK_BITS`` bits is split in two before any pair is built (the
    stage is split-invariant).  Ties broken by (rating desc, cluster id
    asc): the sorted pairs of a mover run in increasing cluster id, so
    a segmented max (``maximum.reduceat``) and the first pair reaching
    it pick the winner without a second sort.  Returns ``(targets,
    ratings)`` aligned with ``chunk``; target −1 where no admissible
    cluster exists.
    """
    (max_w,) = extra
    cluster = view.state["cluster"]
    cw = view.state["cweight"]
    targets = np.full(chunk.size, -1, dtype=np.int64)
    ratings = np.zeros(chunk.size, dtype=np.float64)
    if chunk.size == 0:
        return targets, ratings
    n = np.int64(view.nw.size)
    inc_ptr, inc = kernels.gather_rows(view.node_ptr, view.node_edges, chunk)
    contrib = view.escore.take(inc)
    live = np.flatnonzero(contrib > 0.0)
    if live.size == 0:
        return targets, ratings
    # key < c·n; the low b bits carry the pair's incidence position
    b = live.size.bit_length()
    if chunk.size > 1 and int(chunk.size * n).bit_length() + b > _PACK_BITS:
        half = chunk.size // 2
        lo = _stage_propose(view, chunk[:half], extra)
        hi = _stage_propose(view, chunk[half:], extra)
        return tuple(np.concatenate(pair) for pair in zip(lo, hi))
    owner = kernels.edge_ids_from_ptr(inc_ptr).take(live)
    inc, contrib = inc.take(live), contrib.take(live)
    self_ids = chunk.take(owner)
    cand_ptr, cand = kernels.gather_rows(view.ptr, view.pins, inc)
    tc = cluster.take(cand)
    # pair-sized arrays are dropped once read: they set the stage's peak
    del cand
    pos = kernels.edge_ids_from_ptr(cand_ptr)
    # movers are singletons (cluster[v] == v), so tc != v excludes both
    # self-pins and same-cluster pins in one comparison
    ok = tc != self_ids.take(pos)
    joined = cw.take(self_ids).take(pos)
    joined += cw.take(tc)
    ok &= joined <= max_w
    del joined
    sel = np.flatnonzero(ok)
    del ok
    if sel.size == 0:
        return targets, ratings
    pos = pos.take(sel)
    key = tc.take(sel)
    del tc, sel
    key += owner.take(pos) * n
    key <<= b
    key |= pos
    del pos
    key.sort()
    contrib_s = contrib.take(key & ((1 << b) - 1))
    key >>= b
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    score = np.add.reduceat(contrib_s, starts)
    pair_key = key.take(starts)
    pair_owner = pair_key // n
    mover_starts = np.flatnonzero(
        np.r_[True, pair_owner[1:] != pair_owner[:-1]])
    best = np.maximum.reduceat(score, mover_starts)
    hit = np.flatnonzero(score == np.repeat(
        best, np.diff(np.r_[mover_starts, score.size])))
    hit_owner = pair_owner[hit]
    first = hit[np.r_[True, hit_owner[1:] != hit_owner[:-1]]]
    targets[pair_owner[first]] = pair_key[first] % n
    ratings[pair_owner[first]] = score[first]
    return targets, ratings


def _stage_fm_gain(view: _LevelView, chunk: np.ndarray, extra) -> tuple:
    """Best move target and gain for every boundary node in ``chunk``.

    Gains are computed from scratch from the shared ``pin_counts``
    snapshot (no deltas to reconcile across workers).  A node's result
    reads only its own label and the ``pin_counts`` rows and ``edge_nz``
    of its incident edges, which is what lets ``subround_fm_refine``
    cache it until a move touches one of those edges.  The chunk's
    pin-count rows are read with one row ``take``, and all k part sums
    are one product of a CSR matrix (row i: node i's edge weights, in
    its incidence order) with a 0/1 matrix over those rows.  The product
    adds a row's terms in column order from zero, as an ordered
    ``bincount`` does, so every gain equals
    :func:`_reference_stage_fm_gain`'s bit for bit and is
    chunk-boundary independent.  The leave flags are one flat gather
    from the pin-count rows, and the matrix is a ``csr_array``, whose
    constructor keeps the int64 indices as they are.  Ties: ``argmax``
    returns the smallest part id.  Returns ``(gains, targets)``.
    """
    k, conn = extra
    labels = view.state["labels"]
    pc = view.state["pin_counts"]
    c = chunk.size
    inc_ptr, inc = kernels.gather_rows(view.node_ptr, view.node_edges, chunk)
    a = labels[chunk]
    pcr = np.take(pc, inc, axis=0)
    # v is the last pin of e in its own part: entry (i, a_i) of row-major
    # pcr sits at i·k + a_i
    flat = a.take(kernels.edge_ids_from_ptr(inc_ptr))
    flat += np.arange(0, inc.size * k, k)
    leave = pcr.ravel().take(flat) == 1
    w = csr_array((view.ew.take(inc), np.arange(inc.size), inc_ptr),
                  shape=(c, inc.size))
    if conn:
        # connectivity: leaving part a removes w_e where v was its last
        # pin there; entering part t adds w_e where t had no pin yet
        rem = w @ leave.astype(np.float64)
        gm = rem[:, None] - w @ (pcr == 0).astype(np.float64)
    else:
        # cut-net: an edge pays w_e iff it spans >1 part after the move
        nzr = view.state["edge_nz"][inc]
        before = w @ (nzr > 1).astype(np.float64)
        after = ((nzr - leave)[:, None] + (pcr == 0)) > 1
        gm = before[:, None] - w @ after.astype(np.float64)
    if c:
        gm[np.arange(c), a] = -np.inf
    tgt = np.argmax(gm, axis=1).astype(np.int64)
    return gm[np.arange(c), tgt], tgt


_STAGES = {"propose": _stage_propose, "fm_gain": _stage_fm_gain}


def _reference_stage_propose(view: _LevelView, chunk: np.ndarray,
                             extra) -> tuple:
    """Old ``_stage_propose``: picks each mover's winner with a three-key
    ``np.lexsort`` over all (mover, cluster) pairs.

    Retained as the oracle of :func:`_stage_propose` (property tests in
    ``tests/partitioners/test_subround.py``) and as the reference side
    of the ``propose`` row in ``benchmarks/bench_kernels.py``.
    """
    (max_w,) = extra
    cluster = view.state["cluster"]
    cw = view.state["cweight"]
    targets = np.full(chunk.size, -1, dtype=np.int64)
    ratings = np.zeros(chunk.size, dtype=np.float64)
    if chunk.size == 0:
        return targets, ratings
    n = np.int64(view.nw.size)
    inc_ptr, inc = kernels.gather_rows(view.node_ptr, view.node_edges, chunk)
    if inc.size == 0:
        return targets, ratings
    epins = np.diff(view.ptr)[inc]
    owner_edge = np.repeat(np.arange(chunk.size, dtype=np.int64),
                           np.diff(inc_ptr))
    _, cand = kernels.gather_rows(view.ptr, view.pins, inc)
    owner = np.repeat(owner_edge, epins)
    contrib = np.repeat(view.escore[inc], epins)
    self_ids = chunk[owner]
    # movers are singletons (cluster[v] == v), so tc != v excludes both
    # self-pins and same-cluster pins in one comparison
    tc = cluster[cand]
    ok = ((tc != self_ids) & (contrib > 0.0)
          & (cw[self_ids] + cw[tc] <= max_w))
    owner, tc, contrib = owner[ok], tc[ok], contrib[ok]
    if owner.size == 0:
        return targets, ratings
    key = owner * n + tc
    order = np.argsort(key, kind="stable")
    key_s, contrib_s = key[order], contrib[order]
    starts = np.flatnonzero(np.r_[True, key_s[1:] != key_s[:-1]])
    score = np.add.reduceat(contrib_s, starts)
    pair_owner = key_s[starts] // n
    pair_tc = key_s[starts] % n
    sel = np.lexsort((pair_tc, -score, pair_owner))
    po = pair_owner[sel]
    first = sel[np.flatnonzero(np.r_[True, po[1:] != po[:-1]])]
    targets[pair_owner[first]] = pair_tc[first]
    ratings[pair_owner[first]] = score[first]
    return targets, ratings


def _reference_stage_fm_gain(view: _LevelView, chunk: np.ndarray,
                             extra) -> tuple:
    """Old ``_stage_fm_gain``: a 2-D fancy gather of the pin-count
    rows and one ordered ``bincount`` per part.

    Retained as the oracle of :func:`_stage_fm_gain` (property tests in
    ``tests/partitioners/test_subround.py``) and as the reference side
    of the ``fm_gain`` row in ``benchmarks/bench_kernels.py``.
    """
    k, conn = extra
    labels = view.state["labels"]
    pc = view.state["pin_counts"]
    edge_nz = view.state["edge_nz"]
    c = chunk.size
    inc_ptr, inc = kernels.gather_rows(view.node_ptr, view.node_edges, chunk)
    own = np.repeat(np.arange(c, dtype=np.int64), np.diff(inc_ptr))
    a = labels[chunk]
    a_pin = a[own]
    pcr = pc[inc]
    wr = view.ew[inc]
    rows = np.arange(own.size)
    gm = np.empty((c, k), dtype=np.float64)
    if conn:
        # connectivity: leaving part a removes w_e where v was its last
        # pin there; entering part t adds w_e where t had no pin yet
        rem = np.bincount(own, weights=wr * (pcr[rows, a_pin] == 1),
                          minlength=c)
        for t in range(k):
            gm[:, t] = rem - np.bincount(own, weights=wr * (pcr[:, t] == 0),
                                         minlength=c)
    else:
        # cut-net: an edge pays w_e iff it spans >1 part after the move
        nzr = edge_nz[inc]
        before = np.bincount(own, weights=wr * (nzr > 1), minlength=c)
        base_nz = nzr - (pcr[rows, a_pin] == 1)
        for t in range(k):
            after = base_nz + (pcr[:, t] == 0)
            gm[:, t] = before - np.bincount(own, weights=wr * (after > 1),
                                            minlength=c)
    if c:
        gm[np.arange(c), a] = -np.inf
    tgt = np.argmax(gm, axis=1).astype(np.int64)
    return gm[np.arange(c), tgt], tgt


# ---------------------------------------------------------------------------
# Worker pool — forked once per V-cycle, fed node-id chunks by name.
# ---------------------------------------------------------------------------

def _attach_view(cache: dict, gdesc: dict, sdesc: dict) -> _LevelView:
    """Materialise a :class:`_LevelView` from descriptors, via the cache.

    ``cache`` maps segment name → attached handle; a level's segments
    are attached on first use and dropped on the parent's ``forget``.
    """
    gname = gdesc["arrays"]["seg"]
    shared_graph = cache.get(gname)
    if shared_graph is None:
        shared_graph = SharedCSR.attach(gdesc)
        cache[gname] = shared_graph
    sname = sdesc["seg"]
    shared_state = cache.get(sname)
    if shared_state is None:
        shared_state = SharedArrays.attach(sdesc)
        cache[sname] = shared_state
    state = {name: shared_state[name] for name in sdesc["fields"]}
    return _LevelView(shared_graph["edge_ptr"], shared_graph["edge_pins"],
                      shared_graph["node_ptr"], shared_graph["node_edges"],
                      shared_graph["node_weights"],
                      shared_graph["edge_weights"], state)


def _pool_worker_main(conn) -> None:
    """Worker loop: attach-by-name, run pure stages, report peak RSS.

    A parent SIGKILL reaches the worker as EOF (:class:`Workers` closes
    the parent-side ends it inherited), or as a broken pipe when it
    lands mid-stage, so it exits and the resource tracker unlinks the
    segments (the kill-mid-run test pins this down).

    The RSS *delta* over the post-fork baseline is what the scale bench
    gates on: attached shared pages are counted once system-wide, so a
    worker that never copies the hypergraph stays well under the
    1.5x-payload budget even on million-pin levels.
    """
    base_rss = peak_rss_bytes()
    cache: dict = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "exit":
                break
            try:
                if kind == "forget":
                    for name in msg[1]:
                        handle = cache.pop(name, None)
                        if handle is not None:
                            handle.close()
                    reply = ("ok", None)
                elif kind == "stats":
                    delta = max(0, peak_rss_bytes() - base_rss)
                    reply = ("ok", {"rss_delta_bytes": delta})
                elif kind == "stage":
                    stage, gdesc, sdesc, chunk, extra = msg[1:]
                    view = _attach_view(cache, gdesc, sdesc)
                    reply = ("ok", _STAGES[stage](view, chunk, extra))
                else:
                    reply = ("err", f"unknown message kind {kind!r}")
            except BaseException:
                reply = ("err", traceback.format_exc())
            try:
                conn.send(reply)
            except OSError:
                break                   # the parent is gone
    finally:
        for handle in cache.values():
            handle.close()
        conn.close()


class RoundPool:
    """Persistent fork workers executing deterministic sub-round stages.

    Created once per V-cycle and reused across every level and round —
    the ~ms fork cost is paid ``n_jobs`` times total, not per stage.
    All scheduling is static (``array_split`` into one chunk per
    worker) and all results are consumed in submission order, so the
    pool adds no scheduling nondeterminism whatsoever.
    """

    def __init__(self, n_jobs: int) -> None:
        self._stats: list[dict] = []
        self._workers = Workers(_pool_worker_main, n_jobs)
        self._pipes = self._workers.conns

    @property
    def size(self) -> int:
        return len(self._pipes)

    def _recv(self, pipe):
        try:
            status, payload = pipe.recv()
        except (EOFError, OSError) as exc:
            raise WorkerPoolError(f"pool worker died mid-round: {exc}") from exc
        if status != "ok":
            raise WorkerPoolError(f"pool worker stage failed:\n{payload}")
        return payload

    def run_stage(self, stage: str, gdesc: dict, sdesc: dict,
                  items: np.ndarray, extra) -> list:
        """Map one stage over ``items``, one contiguous chunk per worker.

        Sends every chunk before collecting (workers are guaranteed to
        be in ``recv`` between stages, so the single in-flight task per
        pipe cannot deadlock), then collects in worker order.  Every
        pipe is drained even when a worker reports a failure, so the
        pool stays usable after raising.
        """
        chunks = np.array_split(items, self.size)
        for pipe, chunk in zip(self._pipes, chunks):
            pipe.send(("stage", stage, gdesc, sdesc, chunk, extra))
        payloads: list = []
        failures: list = []
        for pipe in self._pipes:
            try:
                status, payload = pipe.recv()
            except (EOFError, OSError) as exc:
                raise WorkerPoolError(
                    f"pool worker died mid-round: {exc}") from exc
            (payloads if status == "ok" else failures).append(payload)
        if failures:
            raise WorkerPoolError(
                f"pool worker stage failed:\n{failures[0]}")
        return payloads

    def forget(self, names) -> None:
        """Tell workers to drop their attachments to the given segments."""
        for pipe in self._pipes:
            pipe.send(("forget", list(names)))
        for pipe in self._pipes:
            self._recv(pipe)

    def worker_stats(self) -> list[dict]:
        """Per-worker peak-RSS deltas (bytes over the post-fork baseline)."""
        for pipe in self._pipes:
            pipe.send(("stats",))
        return [self._recv(pipe) for pipe in self._pipes]

    @property
    def last_stats(self) -> list[dict]:
        """Stats gathered by :meth:`close` (for benches, post-teardown)."""
        return self._stats

    def close(self) -> None:
        """Collect final stats, shut workers down, reap the processes."""
        if self._pipes:
            try:
                self._stats = self.worker_stats()
            except WorkerPoolError:
                self._stats = []
        for pipe in self._pipes:
            try:
                pipe.send(("exit",))
            except OSError:
                pass
        self._workers.close()
        self._pipes = []

    def __enter__(self) -> "RoundPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Level:
    """Parent-side stage dispatcher for one level.

    With a pool, a big enough level, and a caller whose largest stage
    (``max_items``) could reach ``_POOL_MIN_ITEMS``, the graph and state
    go into shared segments and big stages run in the workers;
    otherwise the same stage functions run inline on the graph's own
    arrays and nothing is published.  The state dict the parent mutates
    *is* the shared mapping, so workers see every between-stage update
    without further copies.
    """

    def __init__(self, pool: RoundPool | None, graph: Hypergraph,
                 state: dict[str, np.ndarray], max_items: int) -> None:
        self.pool = (pool if pool is not None
                     and graph.num_pins >= POOL_MIN_PINS
                     and max_items >= _POOL_MIN_ITEMS else None)
        if self.pool is not None:
            self._graph_shm = SharedCSR.from_hypergraph(graph)
            self._state_shm = SharedArrays.create(state)
            self.state = {name: self._state_shm[name] for name in state}
            self._gdesc = self._graph_shm.descriptor()
            self._sdesc = self._state_shm.descriptor()
        else:
            self._graph_shm = None
            self._state_shm = None
            self.state = dict(state)
        # the parent can always run a stage inline on the same arrays
        # the workers see (zero-copy either way), so small stages skip
        # the pipe round-trip entirely
        ptr, pins = graph.csr()
        node_ptr, node_edges = graph.incidence()
        self._view = _LevelView(ptr, pins, node_ptr, node_edges,
                                graph.node_weights, graph.edge_weights,
                                self.state)

    def run(self, stage: str, items: np.ndarray, extra) -> list:
        items = np.ascontiguousarray(items, dtype=np.int64)
        if self.pool is not None and items.size >= _POOL_MIN_ITEMS:
            return self.pool.run_stage(stage, self._gdesc, self._sdesc,
                                       items, extra)
        fn = _STAGES[stage]
        nchunks = max(1, -(-items.size // _SERIAL_CHUNK))
        return [fn(self._view, chunk, extra)
                for chunk in np.array_split(items, nchunks)]

    def release(self) -> None:
        if self._graph_shm is None:
            return
        try:
            self.pool.forget([self._graph_shm.segment_name,
                              self._state_shm.name])
        except WorkerPoolError:
            pass                        # workers gone; unlink still frees
        self._graph_shm.close()
        self._graph_shm.unlink()
        self._state_shm.close()
        self._state_shm.unlink()


def _concat(outs: list, i: int) -> np.ndarray:
    return outs[0][i] if len(outs) == 1 else np.concatenate(
        [o[i] for o in outs])


# ---------------------------------------------------------------------------
# Coarsening: sub-round heavy-pin matching
# ---------------------------------------------------------------------------

def subround_coarsen_step(
    graph: Hypergraph,
    rng: np.random.Generator,
    max_cluster_weight: float,
    pool: RoundPool | None = None,
) -> tuple[Hypergraph, np.ndarray] | None:
    """One deterministic-parallel cluster-join + contraction step.

    A seeded permutation assigns every node to one of ``_NUM_SUBROUNDS``
    sub-rounds.  In sub-round r, every node that is still a singleton
    (and has received no joiners) proposes to join its highest-rated
    cluster — any cluster, not just singletons, so contraction is
    many-to-one like KaHyPar's clustering, not a 2-to-1 matching.
    Callers should ramp ``max_cluster_weight`` level by level (see
    ``multilevel_partition``): a constant cap lets early snowball
    clusters absorb their whole neighbourhood and stall the shrink.  The
    parent resolves proposals deterministically: a proposal whose target
    is itself moving this sub-round is dropped (except mutual pairs,
    where the larger id joins the smaller), then per-target approvals
    are granted in (rating desc, mover id asc) order while the cluster
    weight cap holds.

    Every proposal is a pure function of the state snapshot and all
    joins happen in the parent, so the clustering — and hence the whole
    contraction sequence — is bitwise-identical for any number of
    workers.  Returns ``(coarser graph, mapping)`` or ``None`` when no
    node joined a cluster.
    """
    n = graph.n
    if n == 0:
        return None
    order = rng.permutation(n)
    nsub = _NUM_SUBROUNDS if n >= 8 * _NUM_SUBROUNDS else 1
    sub_of = np.empty(n, dtype=np.int64)
    sub_of[order] = np.arange(n, dtype=np.int64) % nsub
    # the global fallback round below may propose for every node
    level = _Level(pool, graph, {
        "cluster": np.arange(n, dtype=np.int64),
        "cweight": np.asarray(graph.node_weights, dtype=np.float64).copy(),
    }, max_items=n)
    cluster = level.state["cluster"]
    cweight = level.state["cweight"]
    recv = np.zeros(n, dtype=bool)       # clusters that took a joiner
    max_w = float(max_cluster_weight)
    try:
        any_joined = False
        for rnd in range(nsub):
            any_joined |= _cluster_subround(level, cluster, cweight, recv,
                                            sub_of, rnd, max_w,
                                            graph.node_weights)
        if not any_joined and nsub > 1:
            # nothing joined within the stripes (tiny level, heavy
            # blocking): one global round over all remaining singletons
            sub_of[:] = 0
            any_joined = _cluster_subround(level, cluster, cweight, recv,
                                           sub_of, 0, max_w,
                                           graph.node_weights)
        # Degree-0 nodes rate nothing and are rated by nothing, so the
        # sub-rounds above can never place them — and a few percent of
        # isolated ballast (3.6% of a uniform-random million-pin
        # instance) would stall the ladder far above coarsen_to.  Any
        # grouping of them is cut-neutral: pack by id into weight-capped
        # bins, which is deterministic and keeps balance attainable.
        iso = np.flatnonzero((np.diff(graph.incidence()[0]) == 0)
                             & (cluster == np.arange(n, dtype=np.int64)))
        if iso.size > 1:
            w = np.asarray(graph.node_weights, dtype=np.float64)[iso]
            cap_eff = max(max_w - float(w.max()), float(w.max()))
            offs = np.cumsum(w) - w
            bins = np.floor_divide(offs, cap_eff).astype(np.int64)
            uniq_bins, idx = np.unique(bins, return_inverse=True)
            if uniq_bins.size < iso.size:
                first = np.r_[True, bins[1:] != bins[:-1]]
                cluster[iso] = iso[first][idx]
                any_joined = True
        if not any_joined:
            return None
        rep = np.array(cluster)
    finally:
        level.release()
    uniq_rep, mapping = np.unique(rep, return_inverse=True)
    mapping = mapping.astype(np.int64)
    coarse = graph.contract(mapping, num_groups=int(uniq_rep.size))
    coarse = coarse.merge_parallel_edges()
    if sanitize.ENABLED:
        sanitize.check_csr(*coarse.csr(), coarse.n,
                           where="subround_coarsen_step")
    return coarse, mapping


def _cluster_subround(level: _Level, cluster: np.ndarray,
                      cweight: np.ndarray, recv: np.ndarray,
                      sub_of: np.ndarray, rnd: int, max_w: float,
                      nw: np.ndarray) -> bool:
    """Run one sub-round of cluster-join proposals and apply them.

    Mover eligibility, chain-breaking, and weight-capped approval all
    happen here in the parent on arrays the workers see as snapshots;
    no decision depends on chunking, so the outcome is n_jobs-invariant.
    """
    ids = np.arange(cluster.size, dtype=np.int64)
    movers = np.flatnonzero((sub_of == rnd) & (cluster == ids) & ~recv)
    if movers.size == 0:
        return False
    outs = level.run("propose", movers, (max_w,))
    tgt = _concat(outs, 0)
    rat = _concat(outs, 1)
    has = tgt >= 0
    m, t, r = movers[has], tgt[has], rat[has]
    if m.size == 0:
        return False
    # break mover->mover chains: if my target also moves this sub-round
    # I stay put, unless we are each other's targets (then the larger id
    # joins the smaller, whose own move is cancelled by m > t)
    tgt_of = np.full(cluster.size, -1, dtype=np.int64)
    tgt_of[m] = t
    t_moves = tgt_of[t] != -1
    mutual = t_moves & (tgt_of[t] == m)
    keep = ~t_moves | (mutual & (m > t))
    m, t, r = m[keep], t[keep], r[keep]
    if m.size == 0:
        return False
    # per-target approval in (rating desc, mover id asc) order: grant
    # the longest prefix whose cumulative weight fits the cluster cap
    order = np.lexsort((m, -r, t))
    ms, ts = m[order], t[order]
    w = nw[ms]
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    cums = np.cumsum(w)
    base = np.repeat(cums[starts] - w[starts],
                     np.diff(np.r_[starts, ms.size]))
    fits = cweight[ts] + (cums - base) <= max_w
    ms, ts = ms[fits], ts[fits]
    if ms.size == 0:
        return False
    cluster[ms] = ts
    np.add.at(cweight, ts, nw[ms])
    recv[ts] = True
    return True


# ---------------------------------------------------------------------------
# Refinement: synchronous boundary FM
# ---------------------------------------------------------------------------

def subround_fm_refine(
    graph: Hypergraph,
    partition_or_labels,
    k: int,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    caps: np.ndarray | None = None,
    pool: RoundPool | None = None,
) -> Partition:
    """Synchronous boundary-FM refinement (sub-round variant).

    Sub-round r of a round takes the boundary nodes v ≡ r (mod
    ``_NUM_SUBROUNDS``), sorts them by (gain desc, node id asc), keeps
    the per-part prefix that fits the weight caps (conservative: freed
    source weight is ignored), applies the batch, and — because
    simultaneous moves can interact — rolls back to the best-gain half
    repeatedly if the exact recomputed cost regressed.  A call whose
    start breaks ``caps`` bumps the ``fm_infeasible_starts`` counter of
    :mod:`repro.instrument`.

    Two pieces of state make a sub-round cost what changed since the
    last one rather than a pass over the level.  ``ncut[v]``, the number
    of cut edges at v, is kept by every batch move and undo, so the
    boundary needs no pin rescan.  Each node's ``fm_gain`` result is
    cached until a move touches one of its edges (the rating cache): a
    rating reads only the node's label and its edges' pin-count rows,
    so only these stale nodes are re-rated, and the moves are bitwise
    those of :func:`_reference_subround_fm_refine`, which re-rates every
    boundary node.  Deterministic for any ``n_jobs`` for the same
    reasons as matching.  Never returns a worse partition than it was
    given.
    """
    from .base import weight_caps

    labels_in = (partition_or_labels.labels
                 if isinstance(partition_or_labels, Partition)
                 else partition_or_labels)
    labels0 = np.array(labels_in, dtype=np.int64)   # private working copy
    if caps is None:
        caps = weight_caps(graph, k, eps, relaxed=True)
    metric = Metric(metric)
    conn = metric is Metric.CONNECTIVITY
    ptr, pins = graph.csr()
    nw = graph.node_weights
    n = labels0.size
    pc0 = kernels.pin_count_matrix(ptr, pins, labels0, k)
    level = _Level(pool, graph, {
        "labels": labels0,
        "pin_counts": pc0,
        "edge_nz": (pc0 > 0).sum(axis=1).astype(np.int64),
    }, max_items=-(-n // _NUM_SUBROUNDS))
    labels = level.state["labels"]
    pc = level.state["pin_counts"]
    edge_nz = level.state["edge_nz"]
    part_w = np.zeros(k, dtype=np.float64)
    np.add.at(part_w, labels, nw)
    if not np.all(leq(part_w, caps)):
        instrument.bump("fm_infeasible_starts")
    ncut = np.bincount(pins[np.repeat(edge_nz >= 2, np.diff(ptr))],
                       minlength=n)
    stale = np.ones(n, dtype=bool)
    best_gain = np.empty(n, dtype=np.float64)
    best_tgt = np.empty(n, dtype=np.int64)
    try:
        for _ in range(_FM_MAX_ROUNDS):
            improved = False
            for rnd in range(_NUM_SUBROUNDS):
                nodes = rnd + _NUM_SUBROUNDS * np.flatnonzero(
                    ncut[rnd::_NUM_SUBROUNDS])
                rate = nodes[stale[nodes]]
                if rate.size:
                    outs = level.run("fm_gain", rate, (k, conn))
                    best_gain[rate] = _concat(outs, 0)
                    best_tgt[rate] = _concat(outs, 1)
                    stale[rate] = False
                gain = best_gain[nodes]
                sel = np.flatnonzero(gain > _GAIN_ATOL)
                if sel.size == 0:
                    continue
                nodes_c = nodes[sel]
                tgt_c = best_tgt[nodes_c]
                order = np.lexsort((nodes_c, -gain[sel]))
                nodes_o, tgt_o = nodes_c[order], tgt_c[order]
                w_o = nw[nodes_o]
                cum = np.empty(nodes_o.size, dtype=np.float64)
                for t in range(k):
                    in_t = tgt_o == t
                    cum[in_t] = np.cumsum(w_o[in_t])
                fits = part_w[tgt_o] + cum <= caps[tgt_o] + _GAIN_ATOL
                nodes_o, tgt_o = nodes_o[fits], tgt_o[fits]
                while nodes_o.size:
                    old = labels[nodes_o].copy()
                    delta = _bulk_move(graph, labels, pc, edge_nz, part_w,
                                       ncut, stale, nodes_o, tgt_o, conn)
                    if delta <= _GAIN_ATOL:
                        if delta < -_GAIN_ATOL:
                            improved = True
                        break
                    # interacting moves regressed the exact cost: undo
                    # and retry the best-gain half (deterministic)
                    _bulk_move(graph, labels, pc, edge_nz, part_w, ncut,
                               stale, nodes_o, old, conn)
                    nodes_o = nodes_o[:nodes_o.size // 2]
                    tgt_o = tgt_o[:nodes_o.size]
            if not improved:
                break
        out = np.array(labels)
    finally:
        level.release()
    return Partition(out, k)


def _bulk_move(graph, labels, pc, edge_nz, part_w, ncut, stale, nodes,
               new_labels, conn) -> float:
    """Apply a batch of moves in place; return the exact cost delta.

    ``pin_counts`` is updated incrementally by a 1-D ``np.add.at`` over
    the (edge·k + part) codes of the moved nodes' incidences, through a
    flat view of ``pc``; only touched edges are re-summed.  The touched
    edges are listed, sorted, by marking them in an edge-sized mask,
    which costs less than sorting the incidences.  Every pin of a
    touched edge is marked ``stale`` (its rating reads that edge's row),
    and ``ncut`` follows each touched edge whose cut status flips.  An
    undo is a batch move like any other.
    """
    ptr, pins = graph.csr()
    node_ptr, node_edges = graph.incidence()
    ew, nw = graph.edge_weights, graph.node_weights
    k = pc.shape[1]
    # on the pool path pc lives in shared memory: updates to a copy
    # would never reach the workers
    pc_flat = pc.reshape(-1)
    assert np.shares_memory(pc_flat, pc)
    old = labels[nodes]
    inc_ptr, rows = kernels.gather_rows(node_ptr, node_edges, nodes)
    reps = np.diff(inc_ptr)
    code = rows * k
    np.add.at(pc_flat, code + np.repeat(old, reps), -1)
    np.add.at(pc_flat, code + np.repeat(new_labels, reps), 1)
    mark = np.zeros(edge_nz.size, dtype=bool)
    mark[rows] = True
    touched = np.flatnonzero(mark)
    new_nz = (np.take(pc, touched, axis=0) > 0).sum(axis=1).astype(np.int64)
    old_nz = edge_nz[touched]
    cut_flip = (new_nz > 1).astype(np.int64) - (old_nz > 1)
    if conn:
        delta = float((ew[touched] * (new_nz - old_nz)).sum())
    else:
        delta = float((ew[touched] * cut_flip).sum())
    edge_nz[touched] = new_nz
    np.add.at(part_w, old, -nw[nodes])
    np.add.at(part_w, new_labels, nw[nodes])
    labels[nodes] = new_labels
    t_ptr, t_pins = kernels.gather_rows(ptr, pins, touched)
    stale[t_pins] = True
    pin_flip = np.repeat(cut_flip, np.diff(t_ptr))
    flipped = pin_flip != 0
    np.add.at(ncut, t_pins[flipped], pin_flip[flipped])
    return delta


def _reference_subround_fm_refine(
    graph: Hypergraph,
    partition_or_labels,
    k: int,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    caps: np.ndarray | None = None,
    pool: RoundPool | None = None,
) -> Partition:
    """Old ``subround_fm_refine`` pass loop: every sub-round rescans all
    pins for the boundary and re-rates every boundary node in it.

    Retained as the oracle of :func:`subround_fm_refine` (property tests
    in ``tests/partitioners/test_subround.py``) and as the reference
    side of the ``subround_fm`` row in ``benchmarks/bench_kernels.py``.
    """
    from .base import weight_caps

    labels_in = (partition_or_labels.labels
                 if isinstance(partition_or_labels, Partition)
                 else partition_or_labels)
    labels0 = np.array(labels_in, dtype=np.int64)   # private working copy
    if caps is None:
        caps = weight_caps(graph, k, eps, relaxed=True)
    metric = Metric(metric)
    conn = metric is Metric.CONNECTIVITY
    ptr, pins = graph.csr()
    node_ptr, node_edges = graph.incidence()
    nw, ew = graph.node_weights, graph.edge_weights
    pc0 = kernels.pin_count_matrix(ptr, pins, labels0, k)
    level = _Level(pool, graph, {
        "labels": labels0,
        "pin_counts": pc0,
        "edge_nz": (pc0 > 0).sum(axis=1).astype(np.int64),
    }, max_items=-(-labels0.size // _NUM_SUBROUNDS))
    labels = level.state["labels"]
    pc = level.state["pin_counts"]
    edge_nz = level.state["edge_nz"]
    part_w = np.zeros(k, dtype=np.float64)
    np.add.at(part_w, labels, nw)
    edge_sizes = np.diff(ptr)
    try:
        for _ in range(_FM_MAX_ROUNDS):
            improved = False
            for rnd in range(_NUM_SUBROUNDS):
                cut = edge_nz >= 2
                if not cut.any():
                    break
                # boolean scatter, not np.unique: O(pins) with no hash
                # table, which dominates the profile at 1e6 pins
                bflag = np.zeros(labels.size, dtype=bool)
                bflag[pins[np.repeat(cut, edge_sizes)]] = True
                nodes = np.flatnonzero(bflag)
                nodes = nodes[nodes % _NUM_SUBROUNDS == rnd]
                if nodes.size == 0:
                    continue
                outs = level.run("fm_gain", nodes, (k, conn))
                gain = _concat(outs, 0)
                tgt = _concat(outs, 1)
                sel = np.flatnonzero(gain > _GAIN_ATOL)
                if sel.size == 0:
                    continue
                nodes_c, tgt_c = nodes[sel], tgt[sel]
                order = np.lexsort((nodes_c, -gain[sel]))
                nodes_o, tgt_o = nodes_c[order], tgt_c[order]
                w_o = nw[nodes_o]
                cum = np.empty(nodes_o.size, dtype=np.float64)
                for t in range(k):
                    in_t = tgt_o == t
                    cum[in_t] = np.cumsum(w_o[in_t])
                fits = part_w[tgt_o] + cum <= caps[tgt_o] + _GAIN_ATOL
                nodes_o, tgt_o = nodes_o[fits], tgt_o[fits]
                while nodes_o.size:
                    old = labels[nodes_o].copy()
                    delta = _reference_bulk_move(
                        node_ptr, node_edges, ew, nw, labels, pc, edge_nz,
                        part_w, nodes_o, tgt_o, conn)
                    if delta <= _GAIN_ATOL:
                        if delta < -_GAIN_ATOL:
                            improved = True
                        break
                    # interacting moves regressed the exact cost: undo
                    # and retry the best-gain half (deterministic)
                    _reference_bulk_move(node_ptr, node_edges, ew, nw,
                                         labels, pc, edge_nz, part_w,
                                         nodes_o, old, conn)
                    nodes_o = nodes_o[:nodes_o.size // 2]
                    tgt_o = tgt_o[:nodes_o.size]
            if not improved:
                break
        out = np.array(labels)
    finally:
        level.release()
    return Partition(out, k)


def _reference_bulk_move(node_ptr, node_edges, ew, nw, labels, pc, edge_nz,
                         part_w, nodes, new_labels, conn) -> float:
    """Old ``_bulk_move``: pin counts, ``edge_nz``, part weights, labels."""
    old = labels[nodes]
    inc_ptr, rows = kernels.gather_rows(node_ptr, node_edges, nodes)
    reps = np.diff(inc_ptr)
    np.add.at(pc, (rows, np.repeat(old, reps)), -1)
    np.add.at(pc, (rows, np.repeat(new_labels, reps)), 1)
    touched = np.unique(rows)
    new_nz = (pc[touched] > 0).sum(axis=1).astype(np.int64)
    old_nz = edge_nz[touched]
    if conn:
        delta = float((ew[touched] * (new_nz - old_nz)).sum())
    else:
        delta = float((ew[touched]
                       * ((new_nz > 1).astype(np.int64)
                          - (old_nz > 1))).sum())
    edge_nz[touched] = new_nz
    np.add.at(part_w, old, -nw[nodes])
    np.add.at(part_w, new_labels, nw[nodes])
    labels[nodes] = new_labels
    return delta
