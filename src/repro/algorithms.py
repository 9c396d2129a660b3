"""One table from a partitioner's name to its call.

``repro partition``, the serve ``partition`` and ``simulate`` ops,
``repro sim run|compare`` and ``benchmarks/bench_sim.py`` run the
paper's partitioners by name through :func:`run_algorithm` and take
their names from :data:`ALGORITHMS` (bench_sim runs a subset); the
per-algorithm conventions (``relaxed=True`` for the baselines and the
exact solver, no metric for random, ``repetitions``/``n_jobs`` for
multilevel only) live here once.

Each entry imports its partitioner when called, as
:mod:`repro.generators.factory` does for workloads, so reading the
names (:mod:`repro.serve.protocol` does, in the mesh router too) loads
neither :mod:`repro.partitioners` nor scipy.
"""

from __future__ import annotations

from typing import Callable

from .core.cost import Metric
from .core.hypergraph import Hypergraph
from .core.partition import Partition

__all__ = ["ALGORITHMS", "run_algorithm"]


def _multilevel(graph, k, eps, metric, seed, *, repetitions, n_jobs):
    from .partitioners import multilevel_partition
    return multilevel_partition(graph, k, eps, metric, rng=seed,
                                repetitions=repetitions, n_jobs=n_jobs)


def _recursive(graph, k, eps, metric, seed, **_):
    from .partitioners import recursive_partition
    return recursive_partition(graph, k, eps, metric, rng=seed,
                               relaxed=True)


def _greedy(graph, k, eps, metric, seed, **_):
    from .partitioners import greedy_sequential_partition
    return greedy_sequential_partition(graph, k, eps, metric, rng=seed,
                                       relaxed=True)


def _spectral(graph, k, eps, metric, seed, **_):
    from .partitioners import spectral_partition
    return spectral_partition(graph, k, eps, metric, rng=seed)


def _random(graph, k, eps, metric, seed, **_):
    from .partitioners import random_balanced_partition
    return random_balanced_partition(graph, k, eps, rng=seed, relaxed=True)


def _exact(graph, k, eps, metric, seed, **_):
    # size-guarded: raises ProblemTooLargeError on a large instance
    from .partitioners import exact_partition
    return exact_partition(graph, k, eps, metric, relaxed=True).partition


#: Partitioner name -> call, in the order front ends list the names.
ALGORITHMS: dict[str, Callable[..., Partition]] = {
    "multilevel": _multilevel,
    "recursive": _recursive,
    "greedy": _greedy,
    "spectral": _spectral,
    "random": _random,
    "exact": _exact,
}


def run_algorithm(name: str, graph: Hypergraph, k: int, eps: float,
                  metric: Metric = Metric.CONNECTIVITY, *, seed: int = 0,
                  repetitions: int = 1, n_jobs: int = 1) -> Partition:
    """Partition ``graph`` into ``k`` ε-balanced parts with the named
    partitioner (a key of :data:`ALGORITHMS`); ``repetitions`` and
    ``n_jobs`` reach multilevel only."""
    return ALGORITHMS[name](graph, k, eps, metric, seed,
                            repetitions=repetitions, n_jobs=n_jobs)
