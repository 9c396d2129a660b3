"""DAG schedules (paper Definition 5.3).

A scheduling assigns every node a processor ``p(v) ∈ [k]`` and a time
step ``t(v) ∈ Z⁺`` such that no two nodes share a (processor, time) slot
and precedence constraints are respected (``t(u) < t(v)`` for every edge
``(u, v)``).  The makespan is ``max_v t(v)``; all tasks are unit-time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dag import DAG

__all__ = ["Schedule", "trivial_lower_bound"]


@dataclass(frozen=True)
class Schedule:
    """A (processor, time) assignment for every DAG node.

    ``procs[v] ∈ [0, k)``; ``times[v] ≥ 1`` (1-based as in the paper).
    """

    procs: np.ndarray
    times: np.ndarray
    k: int

    def __post_init__(self) -> None:
        procs = np.asarray(self.procs, dtype=np.int64).copy()
        times = np.asarray(self.times, dtype=np.int64).copy()
        procs.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "procs", procs)
        object.__setattr__(self, "times", times)

    @property
    def makespan(self) -> int:
        """``max_v t(v)`` — the quantity minimised in Definition 5.3."""
        return int(self.times.max()) if self.times.size else 0

    def is_valid(self, dag: DAG) -> bool:
        """Check both Definition 5.3 conditions plus range validity."""
        n = dag.n
        if self.procs.shape != (n,) or self.times.shape != (n,):
            return False
        if n == 0:
            return True
        if self.procs.min() < 0 or self.procs.max() >= self.k:
            return False
        if self.times.min() < 1:
            return False
        # correctness: distinct (processor, time) slots — encode each
        # slot as one integer, sort, and compare neighbours (a plain
        # np.unique takes NumPy 2.4's slower hash path)
        codes = np.sort(self.procs * (self.times.max() + 1) + self.times)
        if np.any(codes[1:] == codes[:-1]):
            return False
        # precedence, vectorised over the edge arrays
        if not dag.edges:
            return True
        e = np.asarray(dag.edges, dtype=np.int64)
        return bool(np.all(self.times[e[:, 0]] < self.times[e[:, 1]]))

    def _reference_is_valid(self, dag: DAG) -> bool:
        """Pure-Python oracle twin of :meth:`is_valid` (parity-tested)."""
        n = dag.n
        if self.procs.shape != (n,) or self.times.shape != (n,):
            return False
        if n == 0:
            return True
        if self.procs.min() < 0 or self.procs.max() >= self.k:
            return False
        if self.times.min() < 1:
            return False
        slots = set(zip(self.procs.tolist(), self.times.tolist()))
        if len(slots) != n:
            return False
        return all(self.times[u] < self.times[v] for u, v in dag.edges)

    def respects_partition(self, labels: np.ndarray) -> bool:
        """Whether the schedule's processor assignment equals ``labels``
        (the μ_p setting of Section 5.2)."""
        return bool(np.array_equal(self.procs, np.asarray(labels)))


def trivial_lower_bound(dag: DAG, k: int) -> int:
    """``max(⌈n/k⌉, longest path length)`` — the standard makespan LB."""
    if dag.n == 0:
        return 0
    return max(-(-dag.n // k), dag.longest_path_length())
