"""Property-based equivalence: vectorised kernels vs ``_reference_*`` oracles.

Every kernel in :mod:`repro.core.kernels` must agree bit-for-bit with the
retained Python-loop reference on arbitrary hypergraphs — including
empty edges, singleton edges, duplicate (parallel) edges, duplicate pins,
and weighted instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Hypergraph, kernels, lambdas
from repro.errors import InvalidHypergraphError, ProblemTooLargeError

from ..conftest import hypergraphs


def _raw_arrays(edges: list[tuple[int, ...]]):
    """Flatten raw (unnormalised) edge lists into (lengths, flat)."""
    lengths = np.fromiter((len(e) for e in edges), dtype=np.int64,
                          count=len(edges))
    flat = np.fromiter((v for e in edges for v in e), dtype=np.int64,
                       count=int(lengths.sum()))
    return lengths, flat


def _edges_of(ptr: np.ndarray, pins: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(pins[ptr[j]:ptr[j + 1]].tolist())
            for j in range(ptr.size - 1)]


@st.composite
def raw_edge_lists(draw, max_nodes: int = 10, max_edges: int = 12):
    """Raw edges with duplicates, repeats, empties — pre-normalisation."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = [tuple(draw(st.lists(st.integers(0, n - 1), min_size=0,
                                 max_size=2 * n)))
             for _ in range(m)]
    # inject exact duplicates so merge/normalise see parallel edges
    if m >= 2 and draw(st.booleans()):
        edges.append(edges[0])
    return n, edges


class TestNormalize:
    @given(raw_edge_lists())
    def test_matches_reference(self, case):
        n, edges = case
        ref = kernels._reference_normalize(edges, n)
        ptr, pins = kernels.normalize_edges(*_raw_arrays(edges), n)
        assert _edges_of(ptr, pins) == ref

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidHypergraphError):
            kernels.normalize_edges(np.array([2]), np.array([0, 5]), 3)
        with pytest.raises(InvalidHypergraphError):
            kernels.normalize_edges(np.array([1]), np.array([-1]), 3)

    def test_empty_and_singleton_edges(self):
        edges = [(), (2,), (2, 2), (1, 0, 1)]
        ptr, pins = kernels.normalize_edges(*_raw_arrays(edges), 3)
        assert _edges_of(ptr, pins) == [(), (2,), (2,), (0, 1)]

    def test_lexsort_fallback_path(self):
        # n = 0 with no pins exercises the non-encoded branch
        ptr, pins = kernels.normalize_edges(np.zeros(0, np.int64),
                                            np.zeros(0, np.int64), 0)
        assert ptr.tolist() == [0] and pins.size == 0


class TestCheckCsr:
    def test_accepts_normalised(self):
        g = Hypergraph(5, [(0, 1, 2), (), (3,), (2, 4)])
        kernels.check_csr(*g.csr(), 5)

    def test_rejects_unsorted_rows(self):
        with pytest.raises(InvalidHypergraphError):
            kernels.check_csr(np.array([0, 2]), np.array([1, 0]), 3)

    def test_rejects_duplicate_pins(self):
        with pytest.raises(InvalidHypergraphError):
            kernels.check_csr(np.array([0, 2]), np.array([1, 1]), 3)

    def test_rejects_bad_ptr(self):
        with pytest.raises(InvalidHypergraphError):
            kernels.check_csr(np.array([0, 3]), np.array([0, 1]), 3)

    def test_trailing_empty_edge_ok(self):
        kernels.check_csr(np.array([0, 2, 2]), np.array([0, 1]), 3)


class TestStructureKernels:
    @given(hypergraphs())
    def test_incidence_matches_reference(self, g: Hypergraph):
        ptr, pins = g.csr()
        ref_ptr, ref_out = kernels._reference_incidence(g.edges, g.n)
        got_ptr, got_out = kernels.incidence_from_csr(ptr, pins, g.n)
        assert np.array_equal(ref_ptr, got_ptr)
        assert np.array_equal(ref_out, got_out)

    @pytest.mark.parametrize("n", [0, 1, 65_536, 65_537, 200_003])
    def test_incidence_radix_passes(self, n):
        """The transpose sorts one 16-bit digit per pass; the strategy
        above draws tiny ``n``, so only these sizes reach a second
        pass.  Ids that share their low 16 bits (v and v + 65 536) must
        come out in node order."""
        rng = np.random.default_rng(n)
        m = 40_000 if n else 0
        lengths = rng.integers(1, 7, size=m)
        flat = rng.integers(0, max(n, 1), size=int(lengths.sum()))
        if n > 65_536:
            flat[:4] = [n - 1, (n - 1) % 65_536, 65_536, 0]
        ptr, pins = kernels.normalize_edges(lengths, flat, n)
        got_ptr, got_out = kernels.incidence_from_csr(ptr, pins, n)
        stable = kernels.edge_ids_from_ptr(ptr)[np.argsort(pins,
                                                           kind="stable")]
        assert got_out.tobytes() == stable.tobytes()
        ref_ptr, ref_out = kernels._reference_incidence(_edges_of(ptr, pins),
                                                        n)
        assert np.array_equal(got_ptr, ref_ptr)
        assert np.array_equal(got_out, ref_out)

    @given(hypergraphs())
    def test_degrees_match_reference(self, g: Hypergraph):
        ref = kernels._reference_degrees(g.edges, g.n)
        got = kernels.degrees_from_pins(g.csr()[1], g.n)
        assert np.array_equal(ref, got)

    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_contract_matches_reference(self, g: Hypergraph, rnd):
        k = rnd.randint(1, max(1, g.n))
        mapping = np.array([rnd.randrange(k) for _ in range(g.n)],
                           dtype=np.int64)
        ref_edges, ref_kept = kernels._reference_contract(g.edges, mapping)
        ptr, pins, kept = kernels.contract_csr(*g.csr(), mapping, k)
        assert _edges_of(ptr, pins) == ref_edges
        assert kept.tolist() == ref_kept

    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_merge_parallel_matches_reference(self, g: Hypergraph, rnd):
        weights = np.array([rnd.uniform(0, 5) for _ in range(g.num_edges)])
        ref_edges, ref_w = kernels._reference_merge_parallel(g.edges, weights)
        ptr, pins, w, _ = kernels.merge_parallel_csr(*g.csr(), weights)
        assert _edges_of(ptr, pins) == ref_edges
        assert np.allclose(w, ref_w)

    @pytest.mark.parametrize("n", [2**10, 2**20, 2**40])
    def test_merge_parallel_rows_of_several_keys(self, n):
        """Rows longer than one packed key (2, 3 and 7 keys a row for
        these pin widths): duplicates, and rows that share only their
        first or only their last pins, must group as the dict does."""
        rng = np.random.default_rng(n)
        rows = [np.sort(rng.choice(n, size=s, replace=False))
                for s in rng.choice([3, 7, 9], size=40)]
        for r in list(rows):
            if r.size == 7:
                head, tail = r.copy(), r.copy()
                head[-1] += head[-1] + 1 < n        # same first pins
                tail[0] -= tail[0] > 0              # same last pins
                rows += [r.copy(), head, tail]
        rng.shuffle(rows)
        ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=ptr[1:])
        pins = np.concatenate(rows).astype(np.int64)
        weights = rng.uniform(0, 5, size=len(rows))
        edges = [tuple(r.tolist()) for r in rows]
        ref_edges, ref_w = kernels._reference_merge_parallel(edges, weights)
        new_ptr, new_pins, w, first = kernels.merge_parallel_csr(
            ptr, pins, weights)
        assert _edges_of(new_ptr, new_pins) == ref_edges
        assert np.allclose(w, ref_w)
        assert [edges[i] for i in first] == ref_edges
        assert len(ref_edges) < len(edges)

    @given(hypergraphs())
    def test_adjacency_matches_reference(self, g: Hypergraph):
        ref = kernels._reference_adjacency(g.edges, g.n)
        aptr, anodes = kernels.adjacency_csr(*g.csr(), g.n)
        got = [tuple(anodes[aptr[v]:aptr[v + 1]].tolist())
               for v in range(g.n)]
        assert got == ref

    @pytest.mark.parametrize("top", [0, 9, 2**16 - 1, 2**16, 2**20, 2**40])
    def test_radix_argsort_is_the_stable_argsort(self, top):
        """One, two and three 16-bit digits, with many ties."""
        rng = np.random.default_rng(top)
        keys = rng.integers(0, top + 1, size=3000, dtype=np.int64)
        keys[::7] = keys[0]
        got = kernels._stable_argsort(keys, top)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))


class TestPartitionKernels:
    @given(hypergraphs(), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_lambda_matches_reference(self, g: Hypergraph, k: int, rnd):
        labels = np.array([rnd.randrange(k) for _ in range(g.n)],
                          dtype=np.int64)
        ref = kernels._reference_lambdas(g.edges, labels, k)
        got = kernels.lambda_counts(*g.csr(), labels, k)
        assert np.array_equal(ref, got)
        # and through the public entry point
        assert np.array_equal(ref, lambdas(g, labels, k))

    @given(hypergraphs(), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_pin_counts_match_reference(self, g: Hypergraph, k: int, rnd):
        labels = np.array([rnd.randrange(k) for _ in range(g.n)],
                          dtype=np.int64)
        ref = kernels._reference_pin_counts(g.edges, labels, k)
        got = kernels.pin_count_matrix(*g.csr(), labels, k)
        assert got.dtype == np.int32
        assert np.array_equal(ref, got.astype(np.int64))

    def test_pin_count_budget_enforced(self):
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        labels = np.zeros(4, dtype=np.int64)
        with pytest.raises(ProblemTooLargeError, match="pin-count matrix"):
            kernels.pin_count_matrix(*g.csr(), labels, 10**9)
        # explicit budgets override the default
        with pytest.raises(ProblemTooLargeError):
            kernels.pin_count_matrix(*g.csr(), labels, 2, budget_bytes=8)
        ok = kernels.pin_count_matrix(*g.csr(), labels, 2, budget_bytes=10**6)
        assert ok.shape == (3, 2)


class TestWeightedEquivalence:
    """Weighted + duplicate-heavy end-to-end paths through Hypergraph."""

    def test_weighted_contract_merge(self):
        g = Hypergraph(6, [(0, 1), (2, 3), (0, 1), (4, 5), (1, 2), ()],
                       node_weights=[1, 2, 3, 4, 5, 6],
                       edge_weights=[1.5, 2.0, 0.5, 1.0, 3.0, 9.0])
        c = g.contract([0, 0, 1, 1, 2, 2])
        # edges (0,1),(0,1 dup) collapse to singleton images and drop;
        # (2,3)->(1,), dropped; (4,5)->(2,), dropped; (1,2)->(0,1) kept
        assert c.edges == ((0, 1),)
        assert c.edge_weights.tolist() == [3.0]
        assert c.node_weights.tolist() == [3.0, 7.0, 11.0]

    def test_merge_sums_weights_first_occurrence_order(self):
        g = Hypergraph(4, [(2, 3), (0, 1), (2, 3), (0, 1), (1, 2)],
                       edge_weights=[1, 2, 4, 8, 16])
        m = g.merge_parallel_edges()
        assert m.edges == ((2, 3), (0, 1), (1, 2))
        assert m.edge_weights.tolist() == [5.0, 10.0, 16.0]

    @given(hypergraphs(max_nodes=8))
    def test_num_pins_matches_edges(self, g: Hypergraph):
        assert g.num_pins == sum(len(e) for e in g.edges)

    @given(hypergraphs(max_nodes=8))
    def test_from_csr_roundtrip(self, g: Hypergraph):
        ptr, pins = g.csr()
        h = Hypergraph.from_csr(g.n, ptr, pins,
                                node_weights=g.node_weights,
                                edge_weights=g.edge_weights)
        assert h == g
        assert hash(h) == hash(g)


class TestRaggedHelpers:
    """gather_rows / edge_ids_from_ptr / check_csr vs their oracles."""

    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_gather_rows_matches_reference(self, g: Hypergraph, rnd):
        ptr, pins = g.csr()
        m = g.num_edges
        rows = np.array([rnd.randrange(m)
                         for _ in range(rnd.randint(0, 2 * m))]
                        if m else [], dtype=np.int64)
        ref_ptr, ref_pins = kernels._reference_gather_rows(ptr, pins, rows)
        got_ptr, got_pins = kernels.gather_rows(ptr, pins, rows)
        assert np.array_equal(ref_ptr, got_ptr)
        assert np.array_equal(ref_pins, got_pins)

    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_gather_rows_on_incidence_rows(self, g: Hypergraph, rnd):
        """Incidence CSR has empty rows (degree-0 nodes); the rows asked
        for repeat and come in any order."""
        node_ptr, node_edges = g.incidence()
        rows = np.array([rnd.randrange(g.n)
                         for _ in range(rnd.randint(0, 3 * g.n))],
                        dtype=np.int64)
        ref_ptr, ref_pins = kernels._reference_gather_rows(
            node_ptr, node_edges, rows)
        got_ptr, got_pins = kernels.gather_rows(node_ptr, node_edges, rows)
        assert got_ptr.dtype == got_pins.dtype == np.int64
        assert np.array_equal(ref_ptr, got_ptr)
        assert np.array_equal(ref_pins, got_pins)

    @pytest.mark.parametrize("rows", [
        [], [0], [4], [0, 2, 4], [3, 1, 1, 3], [4, 0, 2, 0, 4, 1],
        [2, 2, 2], [1, 3, 0, 4, 2],
    ])
    def test_gather_rows_empty_rows_at_both_ends(self, rows):
        # rows 0, 2 and 4 are empty: the first, a middle and the last
        ptr = np.array([0, 0, 3, 3, 5, 5], dtype=np.int64)
        pins = np.array([7, 8, 9, 1, 2], dtype=np.int64)
        rows = np.array(rows, dtype=np.int64)
        ref_ptr, ref_pins = kernels._reference_gather_rows(ptr, pins, rows)
        got_ptr, got_pins = kernels.gather_rows(ptr, pins, rows)
        assert np.array_equal(ref_ptr, got_ptr)
        assert np.array_equal(ref_pins, got_pins)

    @given(hypergraphs())
    def test_edge_ids_on_incidence_rows(self, g: Hypergraph):
        node_ptr, _ = g.incidence()
        ref = kernels._reference_edge_ids(node_ptr)
        got = kernels.edge_ids_from_ptr(node_ptr)
        assert got.dtype == np.int64
        assert np.array_equal(ref, got)
        empty_ends = np.array([0, 0, 2, 2, 3, 3], dtype=np.int64)
        assert kernels.edge_ids_from_ptr(empty_ends).tolist() == [1, 1, 3]

    @given(hypergraphs())
    def test_edge_ids_match_reference(self, g: Hypergraph):
        ptr, _ = g.csr()
        ref = kernels._reference_edge_ids(ptr)
        got = kernels.edge_ids_from_ptr(ptr)
        assert np.array_equal(ref, got)

    @given(hypergraphs())
    def test_check_csr_accepts_what_reference_accepts(self, g: Hypergraph):
        ptr, pins = g.csr()
        kernels.check_csr(ptr, pins, g.n)
        kernels._reference_check_csr(ptr, pins, g.n)

    @pytest.mark.parametrize("ptr,pins,n", [
        (np.array([0, 2]), np.array([1, 0]), 3),    # unsorted row
        (np.array([0, 2]), np.array([1, 1]), 3),    # duplicate pin
        (np.array([0, 3]), np.array([0, 1]), 3),    # ptr overshoots pins
        (np.array([0, 2, 1]), np.array([0, 1]), 3),  # non-monotone ptr
        (np.array([0, 1]), np.array([5]), 3),       # out-of-range pin
        (np.array([1, 2]), np.array([0, 1]), 3),    # ptr[0] != 0
    ])
    def test_check_csr_rejects_like_reference(self, ptr, pins, n):
        with pytest.raises(InvalidHypergraphError):
            kernels.check_csr(ptr, pins, n)
        with pytest.raises(InvalidHypergraphError):
            kernels._reference_check_csr(ptr, pins, n)
