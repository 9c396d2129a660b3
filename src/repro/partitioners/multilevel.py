"""Multilevel k-way hypergraph partitioning (coarsen → initial → refine).

The standard practical answer to the paper's inapproximability results:
deterministic sub-round clustering coarsens the hypergraph, a portfolio
of constructive heuristics partitions the coarsest level, and FM
refinement is applied while uncoarsening (the n-level/multilevel scheme
of [28, 45]).

Independent work — the V-cycle ``repetitions`` and the candidates of the
initial portfolio — can execute in parallel worker processes via
``n_jobs``; per-task seeds are drawn up-front from the caller's RNG so
the result is identical for every ``n_jobs`` given a fixed seed.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import instrument
from ..analyze import sanitize
from ..core.cost import Metric, cost
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..core.shm import SharedCSR
from ..errors import ReproError, SharedMemoryError, WorkerPoolError
from .base import rebalance, weight_caps
from .fm import fm_refine
from .greedy import bfs_growth_partition, greedy_sequential_partition
from .random_part import random_balanced_partition
from .subround import (
    CLUSTER_SLACK,
    POOL_MIN_PINS,
    SHRINK_TARGET,
    RoundPool,
    subround_coarsen_step,
    subround_fm_refine,
)

__all__ = ["multilevel_partition"]

_SEED_BOUND = 2**62

# Measured on the reference container (fork start method): creating and
# tearing down a ProcessPoolExecutor costs ~8 ms, while one solver task
# runs ~14 ms at ~600 pins (coarsest-level portfolio candidate) and
# scales roughly linearly above that.  Parallel dispatch therefore only
# recoups its overhead once per-task work reaches tens of milliseconds
# — i.e. a few thousand pins — so below this cutoff ``_run_tasks``
# stays in-process (results are order-identical either way).
_PARALLEL_MIN_PINS = 4096

# Ship the hypergraph to repetition workers through shared memory once
# it is big enough that per-worker pickling dominates; below this the
# pickle is a handful of pages and the segment setup isn't worth it.
_SHM_HANDOFF_MIN_PINS = 32_768

# Levels at or above this node count refine with the synchronous
# sub-round FM (vectorised rounds, O(pins) per round, parallelisable);
# smaller levels keep the sequential gain-heap FM, whose per-move
# re-evaluation squeezes out slightly better cuts where it is cheap.
# The heap FM hill-climbs out of local minima the batch sub-round FM
# cannot (it only applies positive-gain prefixes), so it stays in
# charge wherever it is affordable.  Measured on planted instances:
# cutover at 2048 recovers the planted cut where 512 left a 6x gap
# (n=2000: cost 337 vs 2100).  Against 8192, on the 10^5-pin
# bench_scale --smoke instance (serial, seeds 0 and 1, 2-CPU host),
# both values make the same heap-FM calls and return the same cut
# (17030 and 12904): every level there of 900+ nodes has over 65 536
# pins, so the pin gate already sends it to the sub-round FM.  Wall
# times, 5.8/3.5 s at 2048 and 4.3/3.7 s at 8192, differ by run-to-run
# noise only.  2048 stays: raising it hands every level between the two
# values that has fewer pins than the gate to the heap FM, and so
# changes labels.  The pin gate keeps heap FM away from
# coarse-but-dense levels (few hundred nodes, 10^5+ pins) where one
# pass costs more than the rest of the V-cycle.
_SYNC_FM_MIN_NODES = 2048
_SYNC_FM_MIN_PINS = 65_536

# Stop coarsening when a step shrinks the level by less than this
# factor: each extra level costs a full refinement pass on the way back
# up, so grinding out the last few percent of contraction (typically
# against the cluster weight cap) is a net loss.
_STALL_SHRINK = 0.95


# ---------------------------------------------------------------------------
# Parallel execution plumbing
# ---------------------------------------------------------------------------

def _run_tasks(fn, argtuples, n_jobs: int, est_pins: int | None = None) -> list:
    """Map ``fn`` over argument tuples, in-process or via worker processes.

    Results come back in submission order, so parallel and serial
    execution select the same winner.  Falls back to serial execution if
    a worker pool cannot be created (restricted environments), and stays
    serial outright when ``est_pins`` (per-task problem size) is below
    ``_PARALLEL_MIN_PINS`` — pool spawn overhead would dominate such
    tasks (see the cutoff's measurement note above).
    """
    if n_jobs <= 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    if est_pins is not None and est_pins < _PARALLEL_MIN_PINS:
        return [fn(*args) for args in argtuples]
    try:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(argtuples)),
                                 mp_context=ctx) as pool:
            return list(pool.map(fn, *zip(*argtuples)))
    except (OSError, PermissionError, ValueError):
        return [fn(*args) for args in argtuples]


def _portfolio_candidate(graph, k, eps, metric, caps, kind, seed):
    """Build one constructive candidate, repair balance, FM-refine it.

    Returns ``(cost, labels)`` or ``None`` when construction fails.
    Top-level function so it pickles into worker processes.
    """
    rng = np.random.default_rng(seed)
    try:
        if kind == "greedy":
            p = greedy_sequential_partition(graph, k, eps, rng=rng,
                                            relaxed=True)
        elif kind == "bfs":
            p = bfs_growth_partition(graph, k, eps, rng=rng, relaxed=True)
        else:
            p = random_balanced_partition(graph, k, eps, rng=rng,
                                          relaxed=True)
    except ReproError:
        # a constructive heuristic may legitimately fail on a coarsened
        # instance (e.g. InfeasibleError under tight caps); the portfolio
        # simply proceeds with the surviving candidates
        return None
    # count-based constructions can violate *weight* caps on coarsened
    # hypergraphs — repair before refining, since FM only keeps
    # cap-respecting prefixes from a feasible start.
    repaired = rebalance(graph, p.labels, caps)
    refined = _refine(graph, repaired, k, eps, metric, caps)
    return float(cost(graph, Partition(refined, k), metric)), refined


def _single_vcycle(graph, k, eps, metric, seed, coarsen_to, initial_tries,
                   relaxed):
    """One seeded V-cycle; returns ``(cost, labels)``.  Picklable."""
    part = multilevel_partition(graph, k, eps, metric,
                                rng=np.random.default_rng(seed),
                                coarsen_to=coarsen_to,
                                initial_tries=initial_tries,
                                relaxed=relaxed, repetitions=1, n_jobs=1)
    return float(cost(graph, part, metric)), part.labels


def _single_vcycle_shm(descriptor, k, eps, metric, seed, coarsen_to,
                       initial_tries, relaxed):
    """`_single_vcycle` over a shared-memory CSR descriptor.

    What pickles into the worker is the ~100-byte descriptor; the
    worker attaches by name and runs over zero-copy views, so its
    private RSS stays a small constant regardless of instance size.
    """
    shared = SharedCSR.attach(descriptor)
    try:
        return _single_vcycle(shared.hypergraph(), k, eps, metric, seed,
                              coarsen_to, initial_tries, relaxed)
    finally:
        shared.close()


def _initial_portfolio(
    graph: Hypergraph,
    k: int,
    eps: float,
    metric: Metric,
    rng: np.random.Generator,
    caps: np.ndarray,
    tries: int,
    n_jobs: int = 1,
) -> Partition:
    """Best of several constructive starts, each FM-refined.

    Candidate seeds are drawn up-front, so the winning candidate is the
    same whether the portfolio runs serially or across processes.
    """
    kinds = ["greedy", "bfs"] + ["random"] * tries
    seeds = rng.integers(0, _SEED_BOUND, size=len(kinds))
    args = [(graph, k, eps, metric, caps, kind, int(seed))
            for kind, seed in zip(kinds, seeds)]
    results = [r for r in _run_tasks(_portfolio_candidate, args, n_jobs,
                                     est_pins=graph.num_pins)
               if r is not None]
    assert results, "no initial partition could be constructed"
    best = min(range(len(results)), key=lambda i: results[i][0])
    return Partition(results[best][1], k)


def multilevel_partition(
    graph: Hypergraph,
    k: int,
    eps: float = 0.0,
    metric: Metric = Metric.CONNECTIVITY,
    rng: int | np.random.Generator | None = None,
    coarsen_to: int | None = None,
    initial_tries: int = 4,
    relaxed: bool = True,
    repetitions: int = 1,
    n_jobs: int = 1,
) -> Partition:
    """Full multilevel partitioner.

    ``relaxed=True`` (default) uses the ``ceil`` balance threshold so a
    feasible solution always exists (Appendix A); pass ``False`` for the
    strict constraint on instances where you know it is satisfiable.
    ``repetitions > 1`` runs independent V-cycles with different random
    matchings and keeps the cheapest result.  ``n_jobs > 1`` executes
    those V-cycles (and the initial-portfolio candidates of a single
    cycle) in parallel worker processes; for a fixed seed the returned
    partition is identical regardless of ``n_jobs``.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if repetitions > 1:
        seeds = gen.integers(0, _SEED_BOUND, size=repetitions)
        tail = (coarsen_to, initial_tries, relaxed)
        shared = None
        if n_jobs > 1 and graph.num_pins >= _SHM_HANDOFF_MIN_PINS:
            try:
                shared = SharedCSR.from_hypergraph(graph)
            except SharedMemoryError:
                shared = None           # no /dev/shm: pickle as before
        if shared is not None:
            with shared:
                descriptor = shared.descriptor()
                args = [(descriptor, k, eps, metric, int(seed), *tail)
                        for seed in seeds]
                results = _run_tasks(_single_vcycle_shm, args, n_jobs,
                                     est_pins=graph.num_pins)
        else:
            args = [(graph, k, eps, metric, int(seed), *tail)
                    for seed in seeds]
            results = _run_tasks(_single_vcycle, args, n_jobs,
                                 est_pins=graph.num_pins)
        best = min(range(len(results)), key=lambda i: results[i][0])
        return Partition(results[best][1], k)
    if coarsen_to is None:
        coarsen_to = max(40, 4 * k)
    caps = weight_caps(graph, k, eps, relaxed=relaxed)
    max_cluster = max(float(graph.node_weights.max(initial=1.0)),
                      float(caps[0]) / 3.0)

    pool = None
    if n_jobs > 1 and graph.num_pins >= POOL_MIN_PINS:
        try:
            pool = RoundPool(n_jobs)
        except WorkerPoolError:
            pool = None                 # restricted env: identical serially
    try:
        levels: list[tuple[Hypergraph, np.ndarray]] = []
        cur = graph
        # Per-level cluster-weight cap, ramped geometrically toward the
        # global cap: level L's clusters stay within a slack multiple of
        # that level's expected average weight, which keeps coarsening
        # balanced (no snowball cluster eating its neighbourhood on the
        # first level) while still letting deep levels merge freely.
        level_cap = (CLUSTER_SLACK * SHRINK_TARGET
                     * float(graph.node_weights.sum()) / max(graph.n, 1))
        stalls = 0
        while cur.n > coarsen_to:
            step = subround_coarsen_step(cur, gen,
                                         min(max_cluster, level_cap),
                                         pool=pool)
            level_cap *= SHRINK_TARGET
            if step is None or step[0].n >= cur.n:
                break
            coarse, mapping = step
            levels.append((cur, mapping))
            stalls = stalls + 1 if coarse.n > _STALL_SHRINK * cur.n else 0
            cur = coarse
            instrument.bump("coarsen_levels")
            if stalls >= 2:
                # two near-no-op levels in a row even with the cap ramp:
                # the structure is exhausted, and every extra level pays
                # a refinement pass — hand over to the initial portfolio
                break

        part = _initial_portfolio(cur, k, eps, metric, gen, caps,
                                  initial_tries, n_jobs=n_jobs)
        labels = part.labels.copy()
        for fine, mapping in reversed(levels):
            labels = labels[mapping]
            labels = _refine(fine, labels, k, eps, metric, caps, pool)
        # final safety: the flat graph has unit weights, so repair +
        # refine guarantees the returned partition honours the caps.
        labels = rebalance(graph, labels, caps)
        labels = _refine(graph, labels, k, eps, metric, caps, pool)
    finally:
        if pool is not None:
            pool.close()
            stats = pool.last_stats
            if stats:
                instrument.bump(
                    "pool_worker_rss_delta_bytes_max",
                    max(s["rss_delta_bytes"] for s in stats))
    if sanitize.ENABLED:
        sanitize.check_partition(graph, labels, k,
                                 where="multilevel_partition")
        sanitize.check_balance(graph, labels, caps,
                               where="multilevel_partition")
    return Partition(labels, k)


def _refine(graph, labels, k, eps, metric, caps, pool=None):
    """Pick the refinement engine by level size (instance-dependent only,
    so the choice — and the result — is identical for every ``n_jobs``).

    Every heap-FM move re-rates the mover's neighbours over all their
    incident edges, so the heap FM is gated on *both* node and pin
    count: coarse levels of expander-ish instances keep hundreds of
    thousands of pins across a few hundred nodes, and a single heap
    pass there costs more than every sub-round pass of the whole
    V-cycle combined.
    """
    if (graph.n >= _SYNC_FM_MIN_NODES
            or graph.num_pins >= _SYNC_FM_MIN_PINS):
        return subround_fm_refine(graph, labels, k=k, eps=eps, metric=metric,
                                  caps=caps, pool=pool).labels.copy()
    return fm_refine(graph, labels, k=k, eps=eps, metric=metric,
                     caps=caps).labels.copy()
