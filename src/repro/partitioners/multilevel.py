"""Multilevel k-way hypergraph partitioning (coarsen → initial → refine).

The standard practical answer to the paper's inapproximability results:
deterministic sub-round clustering coarsens the hypergraph, a portfolio
of constructive heuristics partitions the coarsest level, and FM
refinement is applied while uncoarsening (the n-level/multilevel scheme
of [28, 45]).

Independent work — the V-cycle ``repetitions`` and the candidates of the
initial portfolio — can execute in forked worker processes via
``n_jobs`` (:func:`~repro.core.workers.fork_map`); per-task seeds are
drawn up-front from the caller's RNG so the result is identical for
every ``n_jobs`` given a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .. import instrument
from ..analyze import sanitize
from ..core.cost import Metric, cost
from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..core.workers import fork_map
from ..errors import ReproError, WorkerPoolError
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

# One solver task runs ~14 ms at ~600 pins (coarsest-level portfolio
# candidate) and scales roughly linearly above that, while one
# ``fork_map`` call forking and reaping two workers costs ~1.5 ms (four
# trivial tasks, 2-CPU host).  Parallel dispatch therefore only recoups
# its overhead once per-task work reaches tens of milliseconds — i.e. a
# few thousand pins — so below this cutoff ``_run_tasks`` stays
# in-process (results are order-identical either way).
_PARALLEL_MIN_PINS = 4096

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
    execution select the same winner.  :func:`fork_map` runs serially
    where workers cannot start (restricted environments, or inside a
    worker); this stays serial outright when ``est_pins`` (per-task
    problem size) is below ``_PARALLEL_MIN_PINS`` — fork overhead would
    dominate such tasks (see the cutoff's note above).
    """
    if est_pins is not None and est_pins < _PARALLEL_MIN_PINS:
        n_jobs = 1
    return fork_map(fn, argtuples, n_jobs)


def _portfolio_candidate(graph, k, eps, metric, caps, kind, seed):
    """Build one constructive candidate, repair balance, FM-refine it.

    Returns ``(cost, labels)`` or ``None`` when construction fails.
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
    """One seeded V-cycle; returns ``(cost, labels)``."""
    part = multilevel_partition(graph, k, eps, metric,
                                rng=np.random.default_rng(seed),
                                coarsen_to=coarsen_to,
                                initial_tries=initial_tries,
                                relaxed=relaxed, repetitions=1, n_jobs=1)
    return float(cost(graph, part, metric)), part.labels


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


def _coarsen(graph, gen, coarsen_to, max_cluster, pool):
    """The descent: contract level by level towards ``coarsen_to`` nodes.

    Returns ``(levels, coarsest)``.  ``levels[i]`` is ``(fine, mapping)``
    with ``mapping`` taking the nodes of ``fine`` to those of the next
    coarser level; ``levels[0][0]`` is ``graph``.  Every level created
    here is pushed with its derived caches dropped, so until the ascent
    refines it a waiting level holds only its CSR arrays, weights and
    mapping.  The caller's ``graph`` keeps its caches.
    """
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
        step = subround_coarsen_step(cur, gen, min(max_cluster, level_cap),
                                     pool=pool)
        level_cap *= SHRINK_TARGET
        if step is None or step[0].n >= cur.n:
            break
        coarse, mapping = step
        if cur is not graph:
            cur.drop_caches()
        levels.append((cur, mapping))
        stalls = stalls + 1 if coarse.n > _STALL_SHRINK * cur.n else 0
        cur = coarse
        instrument.bump("coarsen_levels")
        if stalls >= 2:
            # two near-no-op levels in a row even with the cap ramp:
            # the structure is exhausted, and every extra level pays
            # a refinement pass — hand over to the initial portfolio
            break
    return levels, cur


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
        # forked workers inherit the graph: nothing is copied to them
        args = [(graph, k, eps, metric, int(seed), *tail) for seed in seeds]
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
        levels, coarsest = _coarsen(graph, gen, coarsen_to, max_cluster,
                                    pool)
        labels = _initial_portfolio(coarsest, k, eps, metric, gen, caps,
                                    initial_tries, n_jobs=n_jobs).labels
        del coarsest
        # The ascent pops each level as it projects the labels onto it,
        # so nothing refers to the coarser level any more: it is freed
        # before this one is refined.
        while levels:
            fine, mapping = levels.pop()
            labels = _refine(fine, labels[mapping], k, eps, metric, caps,
                             pool)
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

    Every heap-FM move walks all pins of the mover's edges and pushes
    every neighbour, so the heap FM is gated on *both* node and pin
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
