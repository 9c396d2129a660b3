"""Forward abstract interpretation over :mod:`repro.analyze.cfg` CFGs.

:func:`solve` runs the classic worklist algorithm: states flow forward
along CFG edges, meet at merge points through the lattice's ``join``,
and iterate to a fixpoint.  The engine is deliberately small and
generic — a *lattice* is any object with four methods:

``initial(cfg)``
    the state entering the CFG (parameter bounds, empty resource map);
``transfer(node, state) -> (normal, exceptional)``
    the effect of one node.  Two outputs because an exception edge
    leaves *mid-statement*: the default exceptional state is the
    input (the statement's effect may not have happened), but a
    lattice can commit effects to both (releasing a resource counts
    even if the ``close()`` call itself raises);
``refine(edge, state)``
    branch-sensitive narrowing on ``true``/``false`` edges (``if x is
    not None``, ``if n > budget: raise``) — this is where the passes
    get their path sensitivity;
``widen(old, new)``
    acceleration for unbounded-height domains (magnitude bounds under
    ``+=`` in a loop); finite lattices just return ``new``.

States are treated as opaque values compared with ``==``; lattices
return fresh immutable-by-convention dicts.  The worklist is kept
sorted, so the fixpoint — and every witness derived from it — is
deterministic, which the incremental engine's byte-identity contract
requires.

:func:`witness_path` reconstructs the shortest edge path from a source
node to a goal through edges an ``edge_ok`` predicate admits — the
passes use it to turn "this bad state reaches function exit" into a
concrete, replayable path (``Finding.flow``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from .cfg import CFG, Edge

__all__ = ["Solution", "solve", "witness_path"]

#: After this many re-evaluations of one node, join goes through the
#: lattice's ``widen`` — bounds growing around a loop jump to top
#: instead of counting up forever.
_WIDEN_AFTER = 4


class Solution:
    """Fixpoint states, keyed by node id, plus per-edge replay."""

    def __init__(self, cfg: CFG, lattice, inputs: dict) -> None:
        self.cfg = cfg
        self.lattice = lattice
        self.inputs = inputs

    def edge_state(self, edge: Edge):
        """The state flowing along ``edge`` at the fixpoint."""
        src_in = self.inputs.get(edge.src)
        if src_in is None:
            return None
        normal, exceptional = self.lattice.transfer(
            self.cfg.nodes[edge.src], src_in)
        state = exceptional if edge.kind == "exc" else normal
        if edge.kind in ("true", "false"):
            state = self.lattice.refine(edge, state)
        return state


def solve(cfg: CFG, lattice, *, widen_after: int = _WIDEN_AFTER,
          ) -> Solution:
    """Forward worklist fixpoint of ``lattice`` over ``cfg``."""
    inputs: dict[int, object] = {cfg.entry: lattice.initial(cfg)}
    visits: dict[int, int] = {}
    worklist = {cfg.entry}
    while worklist:
        nid = min(worklist)
        worklist.discard(nid)
        visits[nid] = visits.get(nid, 0) + 1
        normal, exceptional = lattice.transfer(cfg.nodes[nid], inputs[nid])
        for edge in cfg.succs[nid]:
            state = exceptional if edge.kind == "exc" else normal
            if edge.kind in ("true", "false"):
                state = lattice.refine(edge, state)
            old = inputs.get(edge.dst)
            new = state if old is None else lattice.join(old, state)
            if old is not None and visits.get(edge.dst, 0) >= widen_after:
                new = lattice.widen(old, new)
            if new != old:
                inputs[edge.dst] = new
                worklist.add(edge.dst)
    return Solution(cfg, lattice, inputs)


def witness_path(cfg: CFG, start: int, goals: Iterable[int],
                 edge_ok: Callable[[Edge], bool]) -> list[Edge] | None:
    """Shortest edge path ``start -> goal`` through admitted edges.

    BFS in deterministic (construction) order; ``None`` when no goal
    is reachable under ``edge_ok``.
    """
    goal_set = set(goals)
    if start in goal_set:
        return []
    parent: dict[int, Edge] = {}
    queue: deque[int] = deque([start])
    seen = {start}
    while queue:
        nid = queue.popleft()
        for edge in cfg.succs[nid]:
            if edge.dst in seen or not edge_ok(edge):
                continue
            parent[edge.dst] = edge
            if edge.dst in goal_set:
                path = [edge]
                while path[0].src != start:
                    path.insert(0, parent[path[0].src])
                return path
            seen.add(edge.dst)
            queue.append(edge.dst)
    return None
