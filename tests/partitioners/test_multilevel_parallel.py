"""Process-parallel multilevel execution: determinism and equivalence.

``multilevel_partition(..., n_jobs=j)`` must return the same partition
cost for every ``j`` given a fixed seed — per-task seeds are drawn
up-front, so serial and parallel runs evaluate the identical candidate
set and pick the identical winner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import cost, is_balanced, workers
from repro.generators import planted_partition_hypergraph, random_hypergraph
from repro.partitioners import multilevel, multilevel_partition, subround
from repro.partitioners.multilevel import _run_tasks


@pytest.fixture(scope="module")
def planted():
    g, labels = planted_partition_hypergraph(200, 4, 600, 20, rng=1)
    return g, labels


class TestDeterminism:
    def test_repetitions_njobs_same_cost(self, planted):
        g, _ = planted
        serial = multilevel_partition(g, 4, eps=0.05, rng=7,
                                      repetitions=4, n_jobs=1)
        parallel = multilevel_partition(g, 4, eps=0.05, rng=7,
                                        repetitions=4, n_jobs=2)
        assert cost(g, serial) == cost(g, parallel)
        assert np.array_equal(serial.labels, parallel.labels)

    def test_portfolio_njobs_same_cost(self, planted):
        g, _ = planted
        serial = multilevel_partition(g, 4, eps=0.05, rng=3, n_jobs=1)
        parallel = multilevel_partition(g, 4, eps=0.05, rng=3, n_jobs=2)
        assert cost(g, serial) == cost(g, parallel)

    def test_same_seed_same_result(self, planted):
        g, _ = planted
        a = multilevel_partition(g, 4, eps=0.05, rng=11, repetitions=2)
        b = multilevel_partition(g, 4, eps=0.05, rng=11, repetitions=2)
        assert np.array_equal(a.labels, b.labels)


class TestQuality:
    def test_repetitions_never_worse_than_single(self, planted):
        """More V-cycles with the same seed stream can only help."""
        g, _ = planted
        single = multilevel_partition(g, 4, eps=0.05, rng=5, repetitions=1)
        multi = multilevel_partition(g, 4, eps=0.05, rng=5, repetitions=4,
                                     n_jobs=2)
        assert is_balanced(multi, 0.05, relaxed=True)
        # not guaranteed in general (different seed streams), but with 4
        # independent tries the best should at least stay in the same
        # ballpark; a 2x regression would indicate broken plumbing
        assert cost(g, multi) <= 2 * cost(g, single)

    def test_weighted_instance(self):
        g = random_hypergraph(120, 200, 2, 5, rng=2)
        p = multilevel_partition(g, 3, eps=0.1, rng=0, repetitions=3,
                                 n_jobs=2)
        assert p.k == 3 and p.n == g.n


class TestRunTasks:
    def test_serial_and_parallel_agree(self):
        args = [(i,) for i in range(5)]
        assert _run_tasks(_square, args, 1) == _run_tasks(_square, args, 2)

    def test_single_task_stays_in_process(self):
        assert _run_tasks(_square, [(3,)], 8) == [9]


class TestInsideWorker:
    """Lab tasks and serve batches run in daemonic workers, which may not
    fork: ``n_jobs > 1`` there must fall back to the serial labels."""

    @pytest.mark.parametrize("kwargs", [
        dict(rng=7, repetitions=2),         # V-cycles through _run_tasks
        dict(rng=3),                        # sub-round stages, RoundPool
    ])
    def test_n_jobs_falls_back_to_serial(self, planted, tmp_path,
                                         monkeypatch, kwargs):
        # lower the size gates so a test-sized graph takes both paths
        monkeypatch.setattr(multilevel, "_PARALLEL_MIN_PINS", 0)
        monkeypatch.setattr(multilevel, "POOL_MIN_PINS", 0)
        monkeypatch.setattr(subround, "POOL_MIN_PINS", 0)
        monkeypatch.setattr(subround, "_POOL_MIN_ITEMS", 1)
        g, _ = planted
        out = tmp_path / "labels.npy"
        proc = workers.start(_partition_to, str(out), g,
                             dict(kwargs, n_jobs=2))
        proc.join(120)
        assert proc.exitcode == 0
        workers.stop(proc)
        serial = multilevel_partition(g, 4, eps=0.05, n_jobs=1, **kwargs)
        assert np.array_equal(np.load(out), serial.labels)


def _square(x: int) -> int:
    return x * x


def _partition_to(path: str, g, kwargs: dict) -> None:
    np.save(path, multilevel_partition(g, 4, eps=0.05, **kwargs).labels)
