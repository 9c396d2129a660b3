"""Tests for random/greedy/FM/multilevel/recursive partitioners."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Hypergraph,
    Metric,
    Partition,
    connectivity_cost,
    cost,
    is_balanced,
)
from repro.core.tolerance import GAIN_ATOL, leq
from repro.generators import (
    block,
    planted_partition_hypergraph,
    random_hypergraph,
)
from repro.partitioners import (
    bfs_growth_partition,
    fm_refine,
    greedy_sequential_partition,
    multilevel_partition,
    random_balanced_partition,
    recursive_partition,
    restrict_to_nodes,
)
from repro.partitioners.fm import _reference_fm_refine, _State
from repro.partitioners.subround import subround_coarsen_step

from ..conftest import hypergraphs


def _weighted(g: Hypergraph, data, integral: bool) -> Hypergraph:
    """``g`` with drawn node and edge weights (integer-valued or not)."""
    if integral:
        node_w, edge_w = st.integers(1, 5), st.integers(0, 5)
    else:
        node_w, edge_w = st.floats(0.1, 4.0), st.floats(0.0, 4.0)
    nw = data.draw(st.lists(node_w, min_size=g.n, max_size=g.n))
    ew = data.draw(st.lists(edge_w, min_size=g.num_edges,
                            max_size=g.num_edges))
    return Hypergraph(g.n, g.edges, node_weights=nw, edge_weights=ew)


def _tight_caps(g: Hypergraph, k: int, data) -> np.ndarray:
    """Per-part caps from 0 to the total weight: some targets infeasible."""
    top = int(g.total_node_weight) + 1
    return np.array(data.draw(st.lists(st.integers(0, top), min_size=k,
                                       max_size=k)), dtype=np.float64)


class TestRandomBalanced:
    @given(st.integers(1, 40), st.integers(1, 5),
           st.sampled_from([0.0, 0.1, 0.5]))
    @settings(max_examples=60)
    def test_always_balanced(self, n, k, eps):
        g = Hypergraph(n, [])
        p = random_balanced_partition(g, k, eps, rng=0, relaxed=True)
        assert is_balanced(p, eps, relaxed=True)

    def test_deterministic_with_seed(self):
        g = Hypergraph(20, [])
        a = random_balanced_partition(g, 3, 0.0, rng=7, relaxed=True)
        b = random_balanced_partition(g, 3, 0.0, rng=7, relaxed=True)
        assert a == b

    def test_uses_all_parts_when_strict(self):
        g = Hypergraph(12, [])
        p = random_balanced_partition(g, 4, 0.0, rng=1)
        assert p.sizes().tolist() == [3, 3, 3, 3]


class TestGreedy:
    def test_balanced_output(self, rng):
        g = random_hypergraph(30, 40, rng=rng)
        for fn in (greedy_sequential_partition, bfs_growth_partition):
            p = fn(g, 3, eps=0.1, rng=rng, relaxed=True)
            assert is_balanced(p, 0.1, relaxed=True)

    def test_greedy_beats_random_on_planted(self):
        g, planted = planted_partition_hypergraph(60, 2, 120, 5, rng=11)
        rand_costs = [connectivity_cost(
            g, random_balanced_partition(g, 2, 0.1, rng=s).labels, 2)
            for s in range(5)]
        greedy = greedy_sequential_partition(g, 2, eps=0.1, rng=1)
        assert cost(g, greedy) <= np.mean(rand_costs)

    def test_bfs_growth_keeps_components_together(self):
        # Two cliquish groups joined by nothing: zero cut achievable.
        g = Hypergraph.disjoint_union([block(6), block(6)])
        p = bfs_growth_partition(g, 2, eps=0.0, rng=3)
        assert connectivity_cost(g, p.labels, 2) == 0


class TestFM:
    def test_improves_random_start(self, rng):
        g, planted = planted_partition_hypergraph(40, 2, 80, 4, rng=5)
        start = random_balanced_partition(g, 2, 0.1, rng=rng)
        refined = fm_refine(g, start, eps=0.1)
        assert cost(g, refined) <= cost(g, start)

    def test_respects_balance(self, rng):
        g = random_hypergraph(24, 30, rng=rng)
        start = random_balanced_partition(g, 3, 0.2, rng=rng)
        refined = fm_refine(g, start, eps=0.2)
        assert is_balanced(refined, 0.2)

    def test_finds_planted_optimum_small(self):
        # Two blocks joined by one edge: optimum cut = 1 under eps=0.
        a, b = block(5), block(5)
        g = Hypergraph.disjoint_union([a, b]).with_edges([(0, 5)])
        bad = Partition(np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1]), 2)
        refined = fm_refine(g, bad, eps=0.0, max_passes=20)
        assert cost(g, refined) == 1.0

    def test_locked_nodes_never_move(self, rng):
        g = random_hypergraph(16, 20, rng=rng)
        start = random_balanced_partition(g, 2, 0.5, rng=rng)
        locked = [0, 1, 2]
        want = start.labels[locked].copy()
        refined = fm_refine(g, start, eps=0.5, locked=locked)
        assert np.array_equal(refined.labels[locked], want)

    def test_cut_net_metric(self, rng):
        g = random_hypergraph(20, 25, rng=rng)
        start = random_balanced_partition(g, 3, 0.3, rng=rng)
        refined = fm_refine(g, start, eps=0.3, metric=Metric.CUT_NET)
        assert cost(g, refined, Metric.CUT_NET) <= cost(g, start, Metric.CUT_NET)

    def test_raw_labels_need_k(self, rng):
        g = random_hypergraph(8, 5, rng=rng)
        with pytest.raises(ValueError):
            fm_refine(g, np.zeros(8, dtype=np.int64))

    @given(hypergraphs(max_nodes=10, min_nodes=2), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_start(self, g, k):
        start = random_balanced_partition(g, k, 0.5, rng=0, relaxed=True)
        refined = fm_refine(g, start, eps=0.5, relaxed=True)
        assert cost(g, refined) <= cost(g, start) + 1e-9

    @given(hypergraphs(max_nodes=14, min_nodes=2), st.integers(2, 6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, g, k, data):
        """With integer weights the batched gain cache makes exactly the
        moves of the per-node reference loop: labels are bitwise equal."""
        g = _weighted(g, data, integral=True)
        labels = np.array(data.draw(
            st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)))
        locked = data.draw(st.lists(st.integers(0, g.n - 1),
                                    max_size=g.n // 3))
        caps = _tight_caps(g, k, data)
        for metric in (Metric.CONNECTIVITY, Metric.CUT_NET):
            got = fm_refine(g, labels, k=k, metric=metric, caps=caps,
                            locked=locked)
            ref = _reference_fm_refine(g, labels, k=k, metric=metric,
                                       caps=caps, locked=locked)
            assert np.array_equal(got.labels, ref.labels)


class TestCoarsening:
    def test_coarsen_reduces_nodes(self, rng):
        g = random_hypergraph(40, 60, rng=rng)
        step = subround_coarsen_step(g, rng, max_cluster_weight=10,
                                     pool=None)
        assert step is not None
        coarse, mapping = step
        assert coarse.n < g.n
        assert mapping.shape == (g.n,)
        assert coarse.total_node_weight == g.total_node_weight

    def test_cluster_weight_respected(self, rng):
        g = random_hypergraph(30, 50, rng=rng)
        step = subround_coarsen_step(g, rng, max_cluster_weight=2.0,
                                     pool=None)
        assert step is not None
        coarse, _ = step
        assert coarse.node_weights.max() <= 2.0

    def test_no_match_returns_none(self, rng):
        # isolated nodes pack into weight-capped bins, so nothing can
        # join only when the cap is below two node weights
        g = Hypergraph(5, [])
        assert subround_coarsen_step(g, rng, 1.0, pool=None) is None


class TestMultilevel:
    def test_balanced_and_better_than_random(self):
        g, planted = planted_partition_hypergraph(80, 4, 200, 10, rng=2)
        p = multilevel_partition(g, 4, eps=0.1, rng=0)
        assert is_balanced(p, 0.1, relaxed=True)
        rand = random_balanced_partition(g, 4, 0.1, rng=0)
        assert cost(g, p) <= cost(g, rand)

    def test_recovers_disjoint_structure(self):
        g = Hypergraph.disjoint_union([block(10), block(10)])
        p = multilevel_partition(g, 2, eps=0.0, rng=0)
        assert cost(g, p) == 0.0

    def test_small_graph_skips_coarsening(self, rng):
        g = random_hypergraph(10, 8, rng=rng)
        p = multilevel_partition(g, 2, eps=0.5, rng=0)
        assert is_balanced(p, 0.5, relaxed=True)


class TestRecursive:
    def test_restrict_to_nodes(self):
        g = Hypergraph(5, [(0, 1, 4), (1, 2), (3, 4)])
        sub = restrict_to_nodes(g, [0, 1, 4])
        # (0,1,4) -> (0,1,2); (1,2) loses a pin -> dropped (1 pin);
        # (3,4) -> single pin dropped.
        assert sub.n == 3
        assert sub.edges == ((0, 1, 2),)

    def test_balanced_output(self, rng):
        g = random_hypergraph(32, 40, rng=rng)
        for k in (2, 3, 4, 5):
            p = recursive_partition(g, k, eps=0.2, rng=0)
            assert is_balanced(p, 0.2)
            assert p.k == k

    def test_k1_trivial(self, rng):
        g = random_hypergraph(6, 4, rng=rng)
        p = recursive_partition(g, 1, eps=0.0, rng=0)
        assert p.labels.tolist() == [0] * 6

    def test_separable_instance(self):
        g = Hypergraph.disjoint_union([block(8), block(8), block(8), block(8)])
        p = recursive_partition(g, 4, eps=0.0, rng=0)
        assert cost(g, p) == 0.0


class TestMultilevelRepetitions:
    def test_best_of_n_never_worse(self):
        g, _ = planted_partition_hypergraph(60, 2, 120, 8, rng=4)
        single = multilevel_partition(g, 2, eps=0.1, rng=5)
        best3 = multilevel_partition(g, 2, eps=0.1, rng=5, repetitions=3)
        assert cost(g, best3) <= cost(g, single) + 1e-9

    def test_repetitions_balanced(self):
        g = random_hypergraph(40, 50, rng=6)
        p = multilevel_partition(g, 3, eps=0.2, rng=0, repetitions=2)
        assert is_balanced(p, 0.2, relaxed=True)


class TestBestMoveVectorisation:
    @given(hypergraphs(max_nodes=8, min_nodes=2), st.integers(2, 4),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_move_delta(self, g, k, data):
        """The vectorised best_move, every row of the batched ``rate``
        and the cached re-check agree with the scalar move_delta
        reference on both metrics, for every (node, target) — including
        targets the caps rule out and non-unit weights.  Integer weights
        must agree exactly; float weights sum in another order, so
        there only the gains are compared, within GAIN_ATOL."""
        integral = data.draw(st.booleans())
        g = _weighted(g, data, integral)
        tol = 0.0 if integral else GAIN_ATOL
        labels = np.array(data.draw(
            st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)))
        caps = _tight_caps(g, k, data)
        nodes = np.arange(g.n)
        for metric in (Metric.CONNECTIVITY, Metric.CUT_NET):
            state = _State(g, labels.copy(), k)
            best = state.rate(nodes, caps, metric)
            for v in range(g.n):
                a = int(labels[v])
                ref = {b: state.move_delta(v, b, metric)
                       for b in range(k) if b != a}
                for b, d in ref.items():
                    assert abs(state.deltas[v, b] - d) <= tol
                fits = [b for b in ref
                        if leq(state.part_weight[b] + g.node_weights[v],
                               caps[b])]
                got = state.best_move(v, caps, metric)
                cached = state.cached_move(v, caps)
                if not fits:
                    assert got is None and cached is None
                    assert best[v] == np.inf
                    continue
                want = min(ref[b] for b in fits)
                for d in (got[0], cached[0], best[v]):
                    assert abs(d - want) <= tol
                if integral:
                    assert cached == got
            # the array-op apply keeps the incremental state exact
            for v in data.draw(st.lists(st.integers(0, g.n - 1),
                                        max_size=4)):
                state.apply(v, (int(state.labels[v]) + 1) % k)
            fresh = _State(g, state.labels.copy(), k)
            assert np.array_equal(state.pin_counts, fresh.pin_counts)
            assert np.array_equal(state.nonzero, fresh.nonzero)
            assert np.allclose(state.part_weight, fresh.part_weight)
