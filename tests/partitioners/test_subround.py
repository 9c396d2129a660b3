"""Deterministic sub-round parallelism: pool mechanics and invariance.

The load-bearing claim of :mod:`repro.partitioners.subround` is that the
*same* decisions are made for any number of workers — stages are pure
functions of a state snapshot and all mutation happens in the parent.
These tests pin that down at three levels: the :class:`RoundPool`
transport, the individual coarsening/refinement steps (with thresholds
lowered so the pool actually engages on small graphs), and the full
``multilevel_partition`` entry point on randomized instances up to
:math:`10^5` pins.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Hypergraph, Metric, Partition, cost, kernels
from repro.core.shm import SharedArrays, SharedCSR
from repro.errors import WorkerPoolError
from repro.generators import streaming_planted_hypergraph
from repro.partitioners import multilevel_partition
from repro.partitioners import subround
from repro.partitioners.base import weight_caps
from repro.partitioners.subround import (
    RoundPool,
    _reference_stage_fm_gain,
    _reference_stage_propose,
    _reference_subround_fm_refine,
    _stage_fm_gain,
    _stage_propose,
    subround_coarsen_step,
    subround_fm_refine,
)

from ..conftest import labelings


@pytest.fixture
def eager_pool(monkeypatch):
    """Lower the size gates so the pool path runs on test-sized graphs."""
    monkeypatch.setattr(subround, "POOL_MIN_PINS", 0)
    monkeypatch.setattr(subround, "_POOL_MIN_ITEMS", 1)


@st.composite
def weighted_hypergraphs(draw) -> Hypergraph:
    """Random hypergraphs with float node and edge weights, big enough
    that one sub-round batches several (possibly interacting) moves."""
    n = draw(st.integers(2, 48))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=6), max_size=72))
    g = Hypergraph(n, edges)
    nw = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
    ew = draw(st.lists(st.floats(0.0, 4.0), min_size=g.num_edges,
                       max_size=g.num_edges))
    return Hypergraph(n, g.edges, node_weights=nw, edge_weights=ew)


@st.composite
def clustered_levels(draw):
    """A level part-way through a clustering round: a hypergraph (unit
    weights, whose equal ratings exercise the cluster-id tie-break, or
    float weights), a clustering with non-singleton clusters, a subset
    of its singletons as movers, and a cluster-weight cap from tight
    (nothing admissible) to loose."""
    n = draw(st.integers(2, 60))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=6), max_size=90))
    g = Hypergraph(n, edges)
    if draw(st.booleans()):
        nw = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
        ew = draw(st.lists(st.floats(0.0, 4.0), min_size=g.num_edges,
                           max_size=g.num_edges))
        g = Hypergraph(n, g.edges, node_weights=nw, edge_weights=ew)
    # a node either represents its own cluster or joins a representative
    is_rep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    is_rep[0] = True
    reps = np.flatnonzero(is_rep)
    picks = draw(st.lists(st.integers(0, reps.size - 1), min_size=n,
                          max_size=n))
    cluster = np.where(is_rep, np.arange(n), reps[picks]).astype(np.int64)
    cweight = np.bincount(cluster, weights=g.node_weights, minlength=n)
    singles = np.flatnonzero(np.bincount(cluster, minlength=n)[cluster] == 1)
    keep = draw(st.lists(st.booleans(), min_size=singles.size,
                         max_size=singles.size))
    movers = singles[np.array(keep, dtype=bool)]
    max_w = draw(st.floats(0.5, 8.0)) * float(g.node_weights.mean())
    ptr, pins = g.csr()
    view = subround._LevelView(ptr, pins, *g.incidence(), g.node_weights,
                               g.edge_weights,
                               {"cluster": cluster, "cweight": cweight})
    return view, movers.astype(np.int64), (max_w,)


@st.composite
def fm_levels(draw):
    """A refinement snapshot for the FM-gain stage: float edge weights in
    [0, 4] (exact zeros included) or integer ones, k from 2 to 9, random
    labels, and a sorted chunk.  Node 0, always in the chunk, lies on
    16+ edges, so its sums formed in another order than incidence order
    can differ in the last bits; the last node lies on none."""
    n = draw(st.integers(2, 30))
    hub = draw(st.lists(st.lists(st.integers(1, n - 1), max_size=5),
                        min_size=16, max_size=24))
    edges = [[0, *e] for e in hub] + draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
        max_size=40))
    g = Hypergraph(n + 1, edges)
    weight = (st.one_of(st.just(0.0), st.floats(0.0, 4.0))
              if draw(st.booleans()) else st.integers(0, 9))
    ew = draw(st.lists(weight, min_size=g.num_edges, max_size=g.num_edges))
    g = Hypergraph(g.n, g.edges, edge_weights=ew)
    k = draw(st.integers(2, 9))
    labels = draw(labelings(g.n, k))
    pc = kernels.pin_count_matrix(*g.csr(), labels, k)
    keep = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    chunk = np.flatnonzero([True, *keep[1:]]).astype(np.int64)
    view = subround._LevelView(*g.csr(), *g.incidence(), g.node_weights,
                               g.edge_weights,
                               {"labels": labels, "pin_counts": pc,
                                "edge_nz": (pc > 0).sum(axis=1)
                                .astype(np.int64)})
    return view, chunk, k


@pytest.fixture
def planted():
    g, labels = streaming_planted_hypergraph(400, 4, 700, 80, edge_size=4,
                                             rng=9)
    return g, labels


class TestRoundPool:
    def test_spins_up_and_reports_stats(self):
        with RoundPool(2) as pool:
            assert pool.size == 2
            stats = pool.worker_stats()
            assert len(stats) == 2
            assert all(s["rss_delta_bytes"] >= 0 for s in stats)

    def test_close_collects_last_stats_and_is_idempotent(self):
        pool = RoundPool(2)
        pool.close()
        assert len(pool.last_stats) == 2
        pool.close()                        # second close is a no-op
        assert pool.size == 0

    def test_stage_failure_raises_worker_pool_error(self, planted):
        g, _ = planted
        with SharedCSR.from_hypergraph(g) as shared:
            state = SharedArrays.create(
                {"cluster": np.arange(g.n, dtype=np.int64)})
            with state, RoundPool(2) as pool:
                with pytest.raises(WorkerPoolError):
                    pool.run_stage("no-such-stage", shared.descriptor(),
                                   state.descriptor(),
                                   np.arange(8, dtype=np.int64), ())
                # the worker survives a failed stage and stays usable
                assert len(pool.worker_stats()) == 2

    def test_forget_drops_attachments(self, planted):
        g, _ = planted
        with SharedCSR.from_hypergraph(g) as shared:
            state = SharedArrays.create(
                {"cluster": np.arange(g.n, dtype=np.int64),
                 "cweight": np.ones(g.n)})
            with state, RoundPool(2) as pool:
                pool.run_stage("propose", shared.descriptor(),
                               state.descriptor(),
                               np.arange(g.n, dtype=np.int64), (8.0,))
                pool.forget([shared.segment_name, state.name])
                # re-running after forget re-attaches by name
                pool.run_stage("propose", shared.descriptor(),
                               state.descriptor(),
                               np.arange(g.n, dtype=np.int64), (8.0,))


class TestCoarsenStep:
    def test_pool_and_serial_agree_bitwise(self, planted, eager_pool):
        g, _ = planted
        serial = subround_coarsen_step(g, np.random.default_rng(5), 8.0,
                                       pool=None)
        assert serial is not None
        with RoundPool(3) as pool:
            parallel = subround_coarsen_step(g, np.random.default_rng(5),
                                             8.0, pool=pool)
        assert parallel is not None
        assert np.array_equal(serial[1], parallel[1])
        for a, b in zip(serial[0].csr(), parallel[0].csr()):
            assert np.array_equal(a, b)

    def test_pooled_level_unlinks_its_segments(self, planted, eager_pool,
                                               monkeypatch):
        """The level a pooled step publishes is gone from /dev/shm when
        the step returns, while the pool that attached it stays open."""
        created = []
        create = SharedArrays.create.__func__

        def recording(cls, arrays):
            shared = create(cls, arrays)
            created.append(Path("/dev/shm") / shared.name)
            return shared

        monkeypatch.setattr(SharedArrays, "create", classmethod(recording))
        g, _ = planted
        with RoundPool(2) as pool:
            out = subround_coarsen_step(g, np.random.default_rng(5), 8.0,
                                        pool=pool)
            assert out is not None
            assert len(created) == 2            # the graph and the state
            assert [p for p in created if p.exists()] == []

    def test_step_shrinks_the_graph(self, planted):
        g, _ = planted
        coarse, mapping = subround_coarsen_step(g, np.random.default_rng(1),
                                                8.0, pool=None)
        assert coarse.n < g.n
        assert mapping.shape == (g.n,)
        assert mapping.max() == coarse.n - 1
        # contraction preserves total node weight
        assert np.isclose(coarse.node_weights.sum(), g.node_weights.sum())

    def test_cluster_weight_cap_holds(self, planted):
        g, _ = planted
        cap = 6.0
        coarse, _ = subround_coarsen_step(g, np.random.default_rng(2), cap,
                                          pool=None)
        assert coarse.node_weights.max() <= cap + 1e-9


class TestProposeStage:
    @given(clustered_levels(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_lexsort(self, level, data):
        """The segmented max picks each mover's lexsort winner: rating
        desc, then cluster id asc, with bitwise-equal ratings."""
        view, movers, extra = level
        got = _stage_propose(view, movers, extra)
        ref = _reference_stage_propose(view, movers, extra)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        # any split of the movers concatenates to the same answer
        cut = data.draw(st.integers(0, movers.size))
        parts = [_stage_propose(view, movers[:cut], extra),
                 _stage_propose(view, movers[cut:], extra)]
        for i, whole in enumerate(got):
            joined = np.concatenate([p[i] for p in parts])
            assert joined.dtype == whole.dtype
            assert joined.tobytes() == whole.tobytes()


    @given(clustered_levels(), st.integers(0, 20))
    @settings(max_examples=120, deadline=None)
    def test_split_path_matches_reference(self, level, budget):
        """With the packed key's bit budget lowered, chunks split (at a
        budget below 4 every chunk of 2+ movers with a pair does) and
        the halves still give the lexsort answer bit for bit."""
        view, movers, extra = level
        stage = subround._stage_propose
        calls = []

        def counting_stage(view, chunk, extra):
            calls.append(chunk.size)
            return stage(view, chunk, extra)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subround, "_PACK_BITS", budget)
            mp.setattr(subround, "_stage_propose", counting_stage)
            got = counting_stage(view, movers, extra)
        ref = _reference_stage_propose(view, movers, extra)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        if budget < 4 and movers.size > 1 and (ref[0] >= 0).any():
            assert len(calls) > 1

    def test_chunk_whose_pairs_all_fail(self):
        """No pair survives: node 4 lies only on a one-pin edge and node
        5 only on a weight-0 edge, so neither builds a pair, and a cap
        below every two-node weight rejects all the pairs the others
        build."""
        g = Hypergraph(6, [[0, 1], [1, 2, 3], [4], [0, 5]],
                       edge_weights=[1.0, 2.0, 1.0, 0.0])
        ptr, pins = g.csr()
        view = subround._LevelView(
            ptr, pins, *g.incidence(), g.node_weights, g.edge_weights,
            {"cluster": np.arange(6, dtype=np.int64),
             "cweight": g.node_weights.copy()})
        for movers, max_w in ((np.array([4, 5]), 10.0),
                              (np.arange(6), 1.5)):
            got = _stage_propose(view, movers, (max_w,))
            ref = _reference_stage_propose(view, movers, (max_w,))
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            assert (got[0] == -1).all() and not got[1].any()
        # with a cap that admits them, the same pairs do propose
        assert (_stage_propose(view, np.arange(4), (2.0,))[0] >= 0).all()


class TestFMGainStage:
    @given(fm_levels(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bincounts(self, level, data):
        """The CSR product adds each node's terms in incidence order, as
        the reference's per-part ``bincount`` does: gains and targets
        are bitwise equal on both metrics, and any split of the chunk
        concatenates to the whole answer."""
        view, chunk, k = level
        cut = data.draw(st.integers(0, chunk.size))
        for conn in (True, False):
            got = _stage_fm_gain(view, chunk, (k, conn))
            ref = _reference_stage_fm_gain(view, chunk, (k, conn))
            parts = [_stage_fm_gain(view, chunk[:cut], (k, conn)),
                     _stage_fm_gain(view, chunk[cut:], (k, conn))]
            for i, (a, b) in enumerate(zip(got, ref)):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
                joined = np.concatenate([p[i] for p in parts])
                assert joined.dtype == a.dtype
                assert joined.tobytes() == a.tobytes()


class TestFMRefine:
    @pytest.mark.parametrize("metric", [Metric.CONNECTIVITY, Metric.CUT_NET])
    def test_never_worse_and_pool_invariant(self, planted, eager_pool,
                                            metric):
        g, _ = planted
        k = 4
        labels0 = np.random.default_rng(3).integers(0, k, size=g.n,
                                                    dtype=np.int64)
        before = cost(g, Partition(labels0, k), metric=metric)
        serial = subround_fm_refine(g, labels0, k=k, eps=0.1, metric=metric,
                                    pool=None)
        with RoundPool(3) as pool:
            parallel = subround_fm_refine(g, labels0, k=k, eps=0.1,
                                          metric=metric, pool=pool)
        assert np.array_equal(serial.labels, parallel.labels)
        assert cost(g, serial, metric=metric) <= before

    def test_respects_weight_caps(self, planted):
        g, labels = planted
        k, eps = 4, 0.1
        refined = subround_fm_refine(g, np.asarray(labels, dtype=np.int64),
                                     k=k, eps=eps, pool=None)
        part_w = np.zeros(k)
        np.add.at(part_w, refined.labels, g.node_weights)
        caps = weight_caps(g, k, eps, relaxed=True)
        assert np.all(part_w <= caps + 1e-9)

    @given(weighted_hypergraphs(), st.integers(2, 6),
           st.sampled_from([0.0, 0.1, 0.5]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, g, k, eps, data):
        """The rating cache and the kept boundary count make exactly the
        moves of the re-rate-everything reference loop."""
        labels0 = data.draw(labelings(g.n, k))
        for metric in (Metric.CONNECTIVITY, Metric.CUT_NET):
            got = subround_fm_refine(g, labels0, k=k, eps=eps,
                                     metric=metric, pool=None)
            ref = _reference_subround_fm_refine(g, labels0, k=k, eps=eps,
                                                metric=metric, pool=None)
            assert np.array_equal(got.labels, ref.labels)

    def test_boundary_follows_moves_and_undos(self):
        """Nodes 1 and 9 share sub-round 1.  Moved together they regress
        the cut, so the batch is undone and 9 moves alone.  That leaves
        {1, 3} cut and cuts {9, 10}, so 3 and 10 follow in their own
        sub-rounds.  The boundary count must take in both the forward
        move and the undo for 3 and 10 to be candidates."""
        g = Hypergraph(16, [[1, 3], [1, 9], [1, 2], [9, 10]],
                       edge_weights=[1.0, 2.0, 2.0, 0.5])
        labels0 = np.zeros(16, dtype=np.int64)
        labels0[[3, 9, 10]] = 1
        caps = np.full(2, 100.0)
        for refine in (subround_fm_refine, _reference_subround_fm_refine):
            got = refine(g, labels0, k=2, caps=caps, pool=None)
            assert not got.labels.any()

    def test_pool_path_matches_reference(self, planted, eager_pool):
        g, _ = planted
        labels0 = np.random.default_rng(5).integers(0, 4, size=g.n,
                                                    dtype=np.int64)
        ref = _reference_subround_fm_refine(g, labels0, k=4, eps=0.1,
                                            pool=None)
        with RoundPool(2) as pool:
            got = subround_fm_refine(g, labels0, k=4, eps=0.1, pool=pool)
        assert np.array_equal(got.labels, ref.labels)

    def test_rates_fewer_nodes_than_reference(self, monkeypatch):
        """Only nodes whose edges a move touched are re-rated."""
        g, _ = streaming_planted_hypergraph(3000, 4, 4000, 600, edge_size=4,
                                            rng=1)
        labels0 = np.random.default_rng(1).integers(0, 4, size=g.n,
                                                    dtype=np.int64)
        stage = subround._STAGES["fm_gain"]
        rated = []

        def counting_stage(view, chunk, extra):
            rated[-1] += chunk.size
            return stage(view, chunk, extra)

        monkeypatch.setitem(subround._STAGES, "fm_gain", counting_stage)
        out = []
        for refine in (subround_fm_refine, _reference_subround_fm_refine):
            rated.append(0)
            out.append(refine(g, labels0, k=4, eps=0.05, pool=None).labels)
        assert np.array_equal(out[0], out[1])
        assert rated[0] <= 0.75 * rated[1]

    @pytest.mark.parametrize("shared", [False, True])
    def test_bulk_move_updates_the_callers_pin_counts(self, planted, shared):
        """``_bulk_move`` writes pin counts through a flat view, which
        must alias the state's matrix, whether the state is the parent's
        own arrays or the shared segment pool workers read."""
        g, _ = planted
        k = 4
        ptr, pins = g.csr()
        labels0 = np.random.default_rng(8).integers(0, k, size=g.n,
                                                    dtype=np.int64)
        pc0 = kernels.pin_count_matrix(ptr, pins, labels0, k)
        fields = {"labels": labels0.copy(), "pin_counts": pc0.copy(),
                  "edge_nz": (pc0 > 0).sum(axis=1).astype(np.int64)}
        shm = SharedArrays.create(fields) if shared else None
        try:
            state = ({name: shm[name] for name in fields} if shared
                     else fields)
            nodes = np.arange(0, g.n, 7, dtype=np.int64)
            new = (labels0[nodes] + 1) % k
            part_w = np.bincount(labels0, weights=g.node_weights,
                                 minlength=k).astype(np.float64)
            ncut = np.zeros(g.n, dtype=np.int64)
            stale = np.zeros(g.n, dtype=bool)
            ref = {name: a.copy() for name, a in fields.items()}
            ref_w = part_w.copy()
            delta = subround._bulk_move(
                g, state["labels"], state["pin_counts"], state["edge_nz"],
                part_w, ncut, stale, nodes, new, True)
            ref_delta = subround._reference_bulk_move(
                *g.incidence(), g.edge_weights, g.node_weights,
                ref["labels"], ref["pin_counts"], ref["edge_nz"], ref_w,
                nodes, new, True)
            assert delta == ref_delta
            for name in fields:
                assert np.array_equal(state[name], ref[name]), name
            assert np.array_equal(
                state["pin_counts"],
                kernels.pin_count_matrix(ptr, pins, state["labels"], k))
            if shared:
                # a fresh mapping of the segment sees the update as well
                again = SharedArrays.attach(shm.descriptor())
                try:
                    assert np.array_equal(again["pin_counts"],
                                          ref["pin_counts"])
                finally:
                    again.close()
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()

    def test_input_labels_unmodified(self, planted):
        g, _ = planted
        labels0 = np.random.default_rng(4).integers(0, 3, size=g.n,
                                                    dtype=np.int64)
        snapshot = labels0.copy()
        subround_fm_refine(g, labels0, k=3, eps=0.1, pool=None)
        assert np.array_equal(labels0, snapshot)


class TestLevelPublish:
    def test_publishes_only_levels_a_stage_can_dispatch(self, planted,
                                                        monkeypatch):
        """The FM's stages hold at most ceil(n/8) nodes, coarsening's
        fallback round all n: only a level whose largest stage reaches
        ``_POOL_MIN_ITEMS`` goes into shared memory."""
        g, _ = planted
        monkeypatch.setattr(subround, "POOL_MIN_PINS", 0)
        monkeypatch.setattr(subround, "_POOL_MIN_ITEMS", g.n // 4)
        published = []

        class RecordingLevel(subround._Level):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                published.append(self.pool is not None)

        monkeypatch.setattr(subround, "_Level", RecordingLevel)
        labels0 = np.random.default_rng(6).integers(0, 4, size=g.n,
                                                    dtype=np.int64)
        with RoundPool(2) as pool:
            refined = subround_fm_refine(g, labels0, k=4, eps=0.1, pool=pool)
            subround_coarsen_step(g, np.random.default_rng(5), 8.0, pool=pool)
        assert published == [False, True]
        assert np.array_equal(
            refined.labels,
            subround_fm_refine(g, labels0, k=4, eps=0.1, pool=None).labels)


class TestNJobsDeterminism:
    """``multilevel_partition(seed=s, n_jobs=j)`` is bitwise j-invariant."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_small_instances(self, seed):
        draw = np.random.default_rng(seed)
        n = int(draw.integers(300, 1200))
        k = int(draw.integers(2, 6))
        edge_size = int(draw.integers(2, 6))
        m_intra = int(draw.integers(n, 2 * n))
        m_inter = int(draw.integers(10, n // 4))
        g, _ = streaming_planted_hypergraph(n, k, m_intra, m_inter,
                                            edge_size=edge_size, rng=seed)
        a = multilevel_partition(g, k, eps=0.05, rng=seed, n_jobs=1)
        b = multilevel_partition(g, k, eps=0.05, rng=seed, n_jobs=4)
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_hundred_thousand_pin_instance(self):
        """1e5 pins: big enough that the shm pool path actually engages."""
        g, _ = streaming_planted_hypergraph(30_000, 8, 18_000, 2_000,
                                            edge_size=5, rng=3)
        assert g.num_pins == 100_000
        assert g.num_pins >= subround.POOL_MIN_PINS
        a = multilevel_partition(g, 8, eps=0.05, rng=7, n_jobs=1)
        b = multilevel_partition(g, 8, eps=0.05, rng=7, n_jobs=4)
        assert a.labels.tobytes() == b.labels.tobytes()
        assert cost(g, a) == cost(g, b)
