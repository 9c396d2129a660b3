"""Unit tests for repro.core.hypergraph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Hypergraph
from repro.errors import InvalidHypergraphError

from ..conftest import hypergraphs


class TestConstruction:
    def test_basic_counts(self):
        g = Hypergraph(5, [(0, 1, 2), (2, 3), (3, 4)])
        assert g.n == 5
        assert g.num_edges == 3
        assert g.num_pins == 7
        assert g.max_degree == 2

    def test_duplicate_pins_collapsed(self):
        g = Hypergraph(3, [(0, 0, 1)])
        assert g.edges == ((0, 1),)
        assert g.num_pins == 2

    def test_parallel_edges_kept(self):
        g = Hypergraph(3, [(0, 1), (0, 1)])
        assert g.num_edges == 2

    def test_pins_sorted(self):
        g = Hypergraph(4, [(3, 1, 0)])
        assert g.edges == ((0, 1, 3),)

    def test_out_of_range_pin_rejected(self):
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(3, [(0, 3)])
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(3, [(-1, 0)])

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(-1, [])

    def test_empty_hypergraph(self):
        g = Hypergraph(0, [])
        assert g.n == 0
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_default_weights(self):
        g = Hypergraph(3, [(0, 1)])
        assert np.array_equal(g.node_weights, np.ones(3))
        assert np.array_equal(g.edge_weights, np.ones(1))

    def test_bad_weight_lengths(self):
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(3, [(0, 1)], node_weights=[1.0])
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(3, [(0, 1)], edge_weights=[1.0, 2.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, [(0, 1)], node_weights=[1.0, -1.0])
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, [(0, 1)], edge_weights=[-1.0])

    def test_weights_copied(self):
        nw = np.ones(2)
        g = Hypergraph(2, [(0, 1)], node_weights=nw)
        nw[0] = 99
        assert g.node_weights[0] == 1.0


class TestDegreesAndCSR:
    def test_degrees(self):
        g = Hypergraph(4, [(0, 1, 2), (0, 1), (0,)])
        assert g.degrees.tolist() == [3, 2, 1, 0]
        assert g.max_degree == 3

    def test_csr_roundtrip(self):
        g = Hypergraph(5, [(0, 1, 2), (2, 3), (3, 4)])
        ptr, pins = g.csr()
        rebuilt = [tuple(pins[ptr[j]:ptr[j + 1]]) for j in range(g.num_edges)]
        assert tuple(rebuilt) == g.edges

    def test_incidence_roundtrip(self):
        g = Hypergraph(4, [(0, 1), (1, 2), (1, 3)])
        assert sorted(g.incident_edges(1).tolist()) == [0, 1, 2]
        assert g.incident_edges(0).tolist() == [0]
        assert g.incident_edges(3).tolist() == [2]

    @given(hypergraphs())
    @settings(max_examples=50)
    def test_pin_count_consistency(self, g: Hypergraph):
        ptr, pins = g.csr()
        assert int(ptr[-1]) == g.num_pins == len(pins)
        assert int(g.degrees.sum()) == g.num_pins

    @given(hypergraphs())
    @settings(max_examples=30)
    def test_drop_caches_rebuilds_same_views(self, g: Hypergraph):
        node_ptr, node_edges = (a.copy() for a in g.incidence())
        degrees = g.degrees.copy()
        edges = g.edges
        ptr, pins = g.csr()
        g.drop_caches()
        assert g._node_ptr is None and g._node_edges is None
        assert g._degrees is None and g._edges_tup is None
        assert g.csr()[0] is ptr and g.csr()[1] is pins
        rebuilt_ptr, rebuilt_edges = g.incidence()
        assert np.array_equal(rebuilt_ptr, node_ptr)
        assert np.array_equal(rebuilt_edges, node_edges)
        assert np.array_equal(g.degrees, degrees)
        assert g.edges == edges


class TestFromCsrNoCopy:
    """``from_csr(..., copy=False)`` adopts int64 arrays and converts
    anything else once, instead of refusing to copy."""

    def test_int32_arrays_are_converted(self):
        ptr = np.array([0, 2, 4], dtype=np.int32)
        pins = np.array([0, 1, 1, 2], dtype=np.int32)
        g = Hypergraph.from_csr(3, ptr, pins, copy=False)
        got_ptr, got_pins = g.csr()
        assert got_ptr.dtype == got_pins.dtype == np.int64
        assert g.edges == ((0, 1), (1, 2))

    def test_lists_are_converted(self):
        g = Hypergraph.from_csr(3, [0, 2, 4], [0, 1, 1, 2], copy=False)
        assert g.edges == ((0, 1), (1, 2))
        assert g.csr()[0].dtype == np.int64

    def test_int64_arrays_are_adopted(self):
        ptr = np.array([0, 2, 4], dtype=np.int64)
        pins = np.array([0, 1, 1, 2], dtype=np.int64)
        g = Hypergraph.from_csr(3, ptr, pins, copy=False)
        assert np.shares_memory(g.csr()[0], ptr)
        assert np.shares_memory(g.csr()[1], pins)
        copied = Hypergraph.from_csr(3, ptr, pins)
        assert not np.shares_memory(copied.csr()[1], pins)


class TestInducedSubgraph:
    def test_keeps_only_contained_edges(self):
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.induced_subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.edges == ((0, 1), (1, 2))

    def test_relabels(self):
        g = Hypergraph(5, [(2, 4)])
        sub = g.induced_subgraph([2, 4])
        assert sub.edges == ((0, 1),)

    def test_preserves_weights(self):
        g = Hypergraph(3, [(0, 1)], node_weights=[1, 2, 3], edge_weights=[5])
        sub = g.induced_subgraph([0, 1])
        assert sub.node_weights.tolist() == [1, 2]
        assert sub.edge_weights.tolist() == [5]

    @given(hypergraphs(max_nodes=8))
    @settings(max_examples=40)
    def test_full_induced_is_identity(self, g: Hypergraph):
        sub = g.induced_subgraph(range(g.n))
        assert sub.n == g.n
        assert sub.edges == g.edges


class TestComponents:
    def test_isolated_nodes_are_singletons(self):
        g = Hypergraph(3, [])
        assert g.connected_components() == [[0], [1], [2]]

    def test_hyperedge_connects(self):
        g = Hypergraph(5, [(0, 1, 2), (3, 4)])
        comps = g.connected_components()
        assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4]]

    def test_chain(self):
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.connected_components() == [[0, 1, 2, 3]]

    @given(hypergraphs())
    @settings(max_examples=40)
    def test_components_partition_nodes(self, g: Hypergraph):
        comps = g.connected_components()
        flat = sorted(v for c in comps for v in c)
        assert flat == list(range(g.n))


class TestContract:
    def test_basic_contraction(self):
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        c = g.contract([0, 0, 1, 1])
        # (0,1) collapses to single pin and is dropped; others map to (0,1)
        assert c.n == 2
        assert c.edges == ((0, 1),)
        assert c.node_weights.tolist() == [2, 2]

    def test_multi_edges_preserved(self):
        g = Hypergraph(4, [(0, 2), (1, 3)])
        c = g.contract([0, 0, 1, 1])
        assert c.edges == ((0, 1), (0, 1))

    def test_num_groups_padding(self):
        g = Hypergraph(2, [(0, 1)])
        c = g.contract([0, 0], num_groups=3)
        assert c.n == 3
        assert c.num_edges == 0

    def test_merge_parallel_edges(self):
        g = Hypergraph(3, [(0, 1), (0, 1), (1, 2)], edge_weights=[1, 2, 5])
        m = g.merge_parallel_edges()
        assert m.num_edges == 2
        assert dict(zip(m.edges, m.edge_weights.tolist())) == {
            (0, 1): 3.0, (1, 2): 5.0}


class TestCompositionHelpers:
    def test_disjoint_union(self):
        a = Hypergraph(2, [(0, 1)])
        b = Hypergraph(3, [(0, 2)])
        u = Hypergraph.disjoint_union([a, b])
        assert u.n == 5
        assert u.edges == ((0, 1), (2, 4))

    def test_add_nodes(self):
        g = Hypergraph(2, [(0, 1)]).add_nodes(3)
        assert g.n == 5
        assert g.degrees.tolist() == [1, 1, 0, 0, 0]

    def test_add_negative_nodes_rejected(self):
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, []).add_nodes(-1)

    def test_with_edges(self):
        g = Hypergraph(3, [(0, 1)]).with_edges([(1, 2)], [4.0])
        assert g.edges == ((0, 1), (1, 2))
        assert g.edge_weights.tolist() == [1.0, 4.0]

    def test_remove_edges(self):
        g = Hypergraph(3, [(0, 1), (1, 2), (0, 2)], edge_weights=[1, 2, 3])
        r = g.remove_edges([1])
        assert r.edges == ((0, 1), (0, 2))
        assert r.edge_weights.tolist() == [1.0, 3.0]


class TestDunder:
    def test_eq_and_hash(self):
        a = Hypergraph(3, [(0, 1)])
        b = Hypergraph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Hypergraph(3, [(0, 2)])

    def test_iter_yields_edges(self):
        g = Hypergraph(3, [(0, 1), (1, 2)])
        assert list(g) == [(0, 1), (1, 2)]

    def test_repr_mentions_counts(self):
        r = repr(Hypergraph(3, [(0, 1)], name="demo"))
        assert "n=3" in r and "demo" in r
