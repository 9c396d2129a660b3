"""Hypergraph data structure (paper Section 3.1).

A hypergraph ``G(V, E)`` consists of nodes ``V = {0, ..., n-1}`` and
hyperedges ``E``, each a subset of ``V``.  Following the paper we track

* ``n`` — the number of nodes,
* ``rho`` — the total number of pins (sum of hyperedge sizes),
* ``max_degree`` (Δ) — the maximal number of hyperedges incident to a node.

The structure is immutable after construction.  The *primary*
representation is CSR: ``(edge_ptr, edge_pins)`` arrays built once by the
vectorised normalisation kernel (:mod:`repro.core.kernels`); the
tuple-of-tuples ``edges`` view, the node→edge incidence, the node→node
adjacency and the degree vector are derived lazily and cached.
Structural operations (contraction, parallel-edge merging, subgraphs,
unions) run as array programs over the CSR arrays and re-enter through
:meth:`from_csr`, which skips re-normalisation of already-normalised pin
rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import InvalidHypergraphError
from . import kernels

__all__ = ["Hypergraph"]


class Hypergraph:
    """An undirected hypergraph on nodes ``0..n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.  Nodes are the integers ``0..n-1``.
    edges:
        Iterable of hyperedges; each hyperedge is an iterable of node ids.
        Duplicate pins within one hyperedge are collapsed.  Duplicate
        hyperedges are *kept* (multi-hypergraphs arise naturally from the
        contraction step of the hierarchy-assignment problem, Appendix H.1).
    node_weights / edge_weights:
        Optional nonnegative weights.  Default to all-ones.
    name:
        Optional label used in ``repr`` and experiment logs.
    """

    __slots__ = (
        "n",
        "node_weights",
        "edge_weights",
        "name",
        "_edge_ptr",
        "_edge_pins",
        "_edges_tup",
        "_node_ptr",
        "_node_edges",
        "_adj_ptr",
        "_adj_nodes",
        "_degrees",
        "__weakref__",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Iterable[int]],
        node_weights: Sequence[float] | np.ndarray | None = None,
        edge_weights: Sequence[float] | np.ndarray | None = None,
        name: str = "",
    ) -> None:
        if num_nodes < 0:
            raise InvalidHypergraphError(f"num_nodes must be >= 0, got {num_nodes}")
        self.n = int(num_nodes)
        mat = [e if isinstance(e, (tuple, list)) else tuple(e) for e in edges]
        lengths = np.fromiter((len(e) for e in mat), dtype=np.int64,
                              count=len(mat))
        flat = np.fromiter(chain.from_iterable(mat), dtype=np.int64,
                           count=int(lengths.sum()))
        self._edge_ptr, self._edge_pins = kernels.normalize_edges(
            lengths, flat, self.n)
        self._init_weights(node_weights, edge_weights)
        self.name = name
        self._edges_tup: tuple[tuple[int, ...], ...] | None = None
        self._node_ptr: np.ndarray | None = None
        self._node_edges: np.ndarray | None = None
        self._adj_ptr: np.ndarray | None = None
        self._adj_nodes: np.ndarray | None = None
        self._degrees: np.ndarray | None = None

    @classmethod
    def from_csr(
        cls,
        num_nodes: int,
        edge_ptr: np.ndarray,
        edge_pins: np.ndarray,
        node_weights: Sequence[float] | np.ndarray | None = None,
        edge_weights: Sequence[float] | np.ndarray | None = None,
        name: str = "",
        copy: bool = True,
    ) -> "Hypergraph":
        """Build directly from *normalised* CSR arrays (fast path).

        Pins of each hyperedge must be strictly increasing (sorted,
        deduplicated); this is validated vectorised in O(ρ) instead of
        re-running the per-edge normalisation loop.  Contraction,
        parallel-edge merging, and the other structural operations use
        this entry point.  With ``copy=False`` int64 arrays are adopted
        without copying (other dtypes and sequences are converted once) —
        callers must not mutate them afterwards.
        """
        if num_nodes < 0:
            raise InvalidHypergraphError(f"num_nodes must be >= 0, got {num_nodes}")
        ptr = np.array(edge_ptr, dtype=np.int64, copy=copy or None)
        pins = np.array(edge_pins, dtype=np.int64, copy=copy or None)
        kernels.check_csr(ptr, pins, int(num_nodes))
        self = object.__new__(cls)
        self.n = int(num_nodes)
        self._edge_ptr, self._edge_pins = ptr, pins
        self._init_weights(node_weights, edge_weights, copy=copy)
        self.name = name
        self._edges_tup = None
        self._node_ptr = None
        self._node_edges = None
        self._adj_ptr = None
        self._adj_nodes = None
        self._degrees = None
        return self

    def _init_weights(self, node_weights, edge_weights, copy: bool = True) -> None:
        m = self._edge_ptr.shape[0] - 1
        if node_weights is None:
            self.node_weights = np.ones(self.n, dtype=np.float64)
        else:
            self.node_weights = np.array(node_weights, dtype=np.float64,
                                         copy=copy or None)
            if self.node_weights.shape != (self.n,):
                raise InvalidHypergraphError("node_weights has wrong length")
            if np.any(self.node_weights < 0):
                raise InvalidHypergraphError("node_weights must be nonnegative")
        if edge_weights is None:
            self.edge_weights = np.ones(m, dtype=np.float64)
        else:
            self.edge_weights = np.array(edge_weights, dtype=np.float64,
                                         copy=copy or None)
            if self.edge_weights.shape != (m,):
                raise InvalidHypergraphError("edge_weights has wrong length")
            if np.any(self.edge_weights < 0):
                raise InvalidHypergraphError("edge_weights must be nonnegative")

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Hyperedges as sorted tuples (materialised lazily from CSR)."""
        if self._edges_tup is None:
            po = self._edge_ptr.tolist()
            pl = self._edge_pins.tolist()
            self._edges_tup = tuple(
                tuple(pl[po[j]:po[j + 1]]) for j in range(len(po) - 1))
        return self._edges_tup

    @property
    def num_edges(self) -> int:
        """Number of hyperedges ``|E|`` (counting multiplicity)."""
        return self._edge_ptr.shape[0] - 1

    @property
    def num_pins(self) -> int:
        """Total number of pins ρ = Σ_e |e| (paper Section 3.1).  O(1)."""
        return int(self._edge_pins.size)

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node: the number of incident hyperedges."""
        if self._degrees is None:
            self._degrees = kernels.degrees_from_pins(self._edge_pins, self.n)
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximal node degree Δ (0 for an edgeless hypergraph)."""
        return int(self.degrees.max()) if self.n else 0

    @property
    def total_node_weight(self) -> float:
        return float(self.node_weights.sum())

    # ------------------------------------------------------------------
    # CSR views (primary representation, used by the vectorised kernels)
    # ------------------------------------------------------------------
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_ptr, edge_pins)`` CSR arrays over hyperedges.

        Pins of hyperedge ``j`` are ``edge_pins[edge_ptr[j]:edge_ptr[j+1]]``.
        """
        return self._edge_ptr, self._edge_pins

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(node_ptr, node_edges)`` CSR arrays over nodes.

        Hyperedges incident to node ``v`` are
        ``node_edges[node_ptr[v]:node_ptr[v+1]]``.
        """
        if self._node_ptr is None:
            self._node_ptr, self._node_edges = kernels.incidence_from_csr(
                self._edge_ptr, self._edge_pins, self.n)
        return self._node_ptr, self._node_edges

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(adj_ptr, adj_nodes)`` CSR arrays of node neighbours.

        The nodes sharing a hyperedge with ``v``, ``v`` excluded, are
        ``adj_nodes[adj_ptr[v]:adj_ptr[v+1]]`` in increasing order.  The
        heap FM walks them after every move; the candidates of the
        initial portfolio refine the same coarsest graph, so caching
        them builds the Σ|e|² pair expansion once per graph.
        """
        if self._adj_ptr is None:
            self._adj_ptr, self._adj_nodes = kernels.adjacency_csr(
                self._edge_ptr, self._edge_pins, self.n)
        return self._adj_ptr, self._adj_nodes

    def incident_edges(self, v: int) -> np.ndarray:
        """Ids of hyperedges containing node ``v``."""
        ptr, ne = self.incidence()
        return ne[ptr[v] : ptr[v + 1]]

    def drop_caches(self) -> None:
        """Forget the derived views: incidence, adjacency, degrees and
        edge tuples.

        Each is rebuilt from the CSR arrays on its next use, so this
        only trades memory for a later rebuild.  The CSR arrays and the
        weights are untouched.  The V-cycle calls it on coarse levels
        that wait for the ascent.
        """
        self._edges_tup = None
        self._node_ptr = None
        self._node_edges = None
        self._adj_ptr = None
        self._adj_nodes = None
        self._degrees = None

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Iterable[int]) -> "Hypergraph":
        """Subgraph induced by ``nodes`` (paper Appendix B.1).

        Keeps exactly the hyperedges fully contained in ``nodes`` (the
        paper's notion used in the hyperDAG characterisation, Lemma B.1),
        relabelled to ``0..|nodes|-1`` in sorted order of old ids.
        """
        keep = sorted(set(int(v) for v in nodes))
        if keep and (keep[0] < 0 or keep[-1] >= self.n):
            raise InvalidHypergraphError("nodes outside range")
        mask = np.zeros(self.n, dtype=bool)
        keep_arr = np.asarray(keep, dtype=np.int64)
        mask[keep_arr] = True
        ptr, pins = self._edge_ptr, self._edge_pins
        inside = np.bincount(kernels.edge_ids_from_ptr(ptr),
                             weights=mask[pins].astype(np.float64),
                             minlength=self.num_edges)
        kept = np.flatnonzero(inside == np.diff(ptr))
        new_ptr, old_pins = kernels.gather_rows(ptr, pins, kept)
        remap = np.cumsum(mask) - 1
        return Hypergraph.from_csr(
            len(keep),
            new_ptr,
            remap[old_pins] if old_pins.size else old_pins,
            node_weights=self.node_weights[keep_arr],
            edge_weights=self.edge_weights[kept],
            name=f"{self.name}[induced]" if self.name else "",
            copy=False,
        )

    def remove_edges(self, edge_ids: Iterable[int]) -> "Hypergraph":
        """Copy of the hypergraph with the given hyperedges deleted."""
        drop = set(int(j) for j in edge_ids)
        keep = np.asarray([j for j in range(self.num_edges) if j not in drop],
                          dtype=np.int64)
        new_ptr, new_pins = kernels.gather_rows(self._edge_ptr,
                                                self._edge_pins, keep)
        return Hypergraph.from_csr(
            self.n, new_ptr, new_pins,
            node_weights=self.node_weights,
            edge_weights=self.edge_weights[keep],
            name=self.name, copy=False,
        )

    def connected_components(self) -> list[list[int]]:
        """Connected components (nodes connected through shared hyperedges).

        Isolated nodes each form their own singleton component.  Uses a
        union-find over pins, O(ρ·α(n)).
        """
        parent = np.arange(self.n, dtype=np.int64)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for e in self.edges:
            if len(e) < 2:
                continue
            r0 = find(e[0])
            for v in e[1:]:
                rv = find(v)
                if rv != r0:
                    parent[rv] = r0
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), []).append(v)
        return sorted(groups.values(), key=lambda g: g[0])

    def contract(self, mapping: Sequence[int] | np.ndarray, num_groups: int | None = None) -> "Hypergraph":
        """Contract node groups into single nodes (paper Appendix H.1).

        ``mapping[v]`` gives the group id of node ``v``.  Hyperedges are
        mapped pin-wise; hyperedges collapsing to a single pin are dropped
        (they can never be cut).  Duplicate images are kept, so the result
        is in general a multi-hypergraph — exactly the contracted input of
        the hierarchy-assignment problem.  Node weights accumulate.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.n,):
            raise InvalidHypergraphError("mapping has wrong length")
        if mapping.size and int(mapping.min()) < 0:
            raise InvalidHypergraphError("mapping has negative group ids")
        k = int(mapping.max()) + 1 if self.n else 0
        if num_groups is not None:
            if num_groups < k:
                raise InvalidHypergraphError("num_groups smaller than max group id + 1")
            k = num_groups
        nw = np.zeros(k, dtype=np.float64)
        np.add.at(nw, mapping, self.node_weights)
        new_ptr, new_pins, kept = kernels.contract_csr(
            self._edge_ptr, self._edge_pins, mapping, k)
        return Hypergraph.from_csr(
            k, new_ptr, new_pins,
            node_weights=nw, edge_weights=self.edge_weights[kept],
            name=f"{self.name}[contracted]" if self.name else "", copy=False,
        )

    def merge_parallel_edges(self) -> "Hypergraph":
        """Collapse identical hyperedges, summing their weights."""
        new_ptr, new_pins, weights, _ = kernels.merge_parallel_csr(
            self._edge_ptr, self._edge_pins, self.edge_weights)
        return Hypergraph.from_csr(
            self.n, new_ptr, new_pins,
            node_weights=self.node_weights, edge_weights=weights,
            name=self.name, copy=False,
        )

    @staticmethod
    def disjoint_union(parts: Sequence["Hypergraph"], name: str = "") -> "Hypergraph":
        """Disjoint union; nodes of later parts are shifted upward."""
        offset = 0
        ptrs: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        pin_chunks: list[np.ndarray] = []
        nws: list[np.ndarray] = []
        ews: list[np.ndarray] = []
        pin_offset = 0
        for g in parts:
            ptr, pins = g.csr()
            ptrs.append(ptr[1:] + pin_offset)
            pin_chunks.append(pins + offset)
            nws.append(g.node_weights)
            ews.append(g.edge_weights)
            offset += g.n
            pin_offset += pins.size
        return Hypergraph.from_csr(
            offset,
            np.concatenate(ptrs),
            np.concatenate(pin_chunks) if pin_chunks else np.zeros(0, np.int64),
            node_weights=np.concatenate(nws) if nws else None,
            edge_weights=np.concatenate(ews) if ews else None,
            name=name, copy=False,
        )

    def add_nodes(self, count: int, weight: float = 1.0) -> "Hypergraph":
        """Copy with ``count`` isolated nodes appended (Lemma A.1 tool)."""
        if count < 0:
            raise InvalidHypergraphError("count must be >= 0")
        nw = np.concatenate([self.node_weights, np.full(count, weight)])
        return Hypergraph.from_csr(
            self.n + count, self._edge_ptr, self._edge_pins,
            node_weights=nw, edge_weights=self.edge_weights, name=self.name,
        )

    def with_edges(self, extra_edges: Iterable[Iterable[int]],
                   extra_weights: Sequence[float] | None = None) -> "Hypergraph":
        """Copy with additional hyperedges appended."""
        mat = [e if isinstance(e, (tuple, list)) else tuple(e)
               for e in extra_edges]
        lengths = np.fromiter((len(e) for e in mat), dtype=np.int64,
                              count=len(mat))
        flat = np.fromiter(chain.from_iterable(mat), dtype=np.int64,
                           count=int(lengths.sum()))
        eptr, epins = kernels.normalize_edges(lengths, flat, self.n)
        ew = np.concatenate([
            self.edge_weights,
            np.ones(len(mat)) if extra_weights is None
            else np.asarray(extra_weights, dtype=np.float64),
        ])
        return Hypergraph.from_csr(
            self.n,
            np.concatenate([self._edge_ptr, eptr[1:] + self._edge_ptr[-1]]),
            np.concatenate([self._edge_pins, epins]),
            node_weights=self.node_weights, edge_weights=ew,
            name=self.name, copy=False,
        )

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.edges)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (f"Hypergraph(n={self.n}, m={self.num_edges}, "
                f"pins={self.num_pins}, Δ={self.max_degree}{tag})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self._edge_ptr, other._edge_ptr)
                and np.array_equal(self._edge_pins, other._edge_pins)
                and np.array_equal(self.node_weights, other.node_weights)
                and np.array_equal(self.edge_weights, other.edge_weights))

    def __hash__(self) -> int:  # structure dominates; weights rarely differ
        return hash((self.n, self._edge_ptr.tobytes(),
                     self._edge_pins.tobytes()))
