"""Tests for the spectral (clique-expansion) baseline partitioner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import Hypergraph, connectivity_cost, cost, is_balanced
from repro.generators import block, planted_partition_hypergraph, random_hypergraph
from repro.partitioners import (
    clique_expansion_laplacian,
    random_balanced_partition,
    spectral_bisection,
    spectral_order,
    spectral_partition,
)


class TestLaplacian:
    def test_two_pin_edge_weights(self):
        g = Hypergraph(2, [(0, 1)], edge_weights=[3.0])
        lap = clique_expansion_laplacian(g).toarray()
        assert lap[0, 0] == 3.0 and lap[0, 1] == -3.0

    def test_hyperedge_normalisation(self):
        # size-3 hyperedge: each pair gets w/(|e|-1) = 0.5
        g = Hypergraph(3, [(0, 1, 2)])
        lap = clique_expansion_laplacian(g).toarray()
        assert lap[0, 1] == -0.5
        assert lap[0, 0] == 1.0  # two incident pairs x 0.5

    def test_row_sums_zero(self):
        g = random_hypergraph(12, 10, rng=0)
        lap = clique_expansion_laplacian(g).toarray()
        assert np.allclose(lap.sum(axis=1), 0)

    def test_singletons_ignored(self):
        g = Hypergraph(3, [(0,), (1, 2)])
        lap = clique_expansion_laplacian(g).toarray()
        assert lap[0, 0] == 0.0


class TestSpectral:
    def test_separates_disjoint_blocks(self):
        g = Hypergraph.disjoint_union([block(6), block(6)])
        labels = spectral_bisection(g, rng=0)
        # the two blocks must land on different sides
        assert len(set(labels[:6].tolist())) == 1
        assert len(set(labels[6:].tolist())) == 1
        assert labels[0] != labels[6]

    def test_order_is_permutation(self):
        g = random_hypergraph(15, 12, rng=1)
        order = spectral_order(g, rng=0)
        assert sorted(order.tolist()) == list(range(15))

    def test_tiny_graph_fallback(self):
        g = Hypergraph(3, [(0, 1)])
        labels = spectral_bisection(g, rng=0)
        assert labels.shape == (3,)

    def test_partition_balanced(self):
        g = random_hypergraph(40, 50, rng=2)
        for k in (2, 3, 4):
            p = spectral_partition(g, k, eps=0.2, rng=0)
            assert p.k == k
            assert is_balanced(p, 0.2, relaxed=True)

    def test_beats_random_on_planted(self):
        g, planted = planted_partition_hypergraph(80, 2, 200, 8, rng=4)
        sp = spectral_partition(g, 2, eps=0.1, rng=0)
        rand = random_balanced_partition(g, 2, 0.1, rng=0)
        assert cost(g, sp) < cost(g, rand)

    def test_no_refine_option(self):
        g = random_hypergraph(20, 15, rng=3)
        p = spectral_partition(g, 2, eps=0.5, rng=0, refine=False)
        assert p.k == 2


def test_partitioner_import_leaves_sparse_linalg_to_first_use():
    """``import repro.partitioners`` loads neither ``scipy.sparse.linalg``
    (the spectral partitioner imports it on first use) nor networkx,
    and the serve warm-up loads it before batch workers fork."""
    code = (
        "import sys\n"
        "import repro.partitioners\n"
        "heavy = ('scipy.sparse.linalg', 'scipy.linalg', 'networkx')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "from repro.serve.runner import warm_solver_modules\n"
        "warm_solver_modules()\n"
        "print('scipy.sparse.linalg' in sys.modules)\n")
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split("\n")[:2] == ["[]", "True"]
