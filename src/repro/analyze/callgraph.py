"""Project call graph — the link stage of the analysis pipeline.

Nodes are ``"<module>:<qualname>"`` strings, one per function or
method known to the :class:`~repro.analyze.index.ModuleIndex` (plus a
pseudo-node ``module:<module>`` for import-time statements).  Edges
come from the resolved call records in each module summary; a call
whose dotted target resolves to another project function becomes an
edge, a call into a class becomes an edge to its ``__init__`` when one
exists, and everything that does *not* resolve into the project
(numpy, stdlib ``time``/``os``/``socket``, ...) is kept as an
*external* call record — exactly the material the dataflow sink passes
match against.

Resolution handles the edge cases the test-suite pins down:
``from x import y as z`` aliasing, re-exports through ``__init__.py``
chains, method calls on locals whose class is known by construction
(``g = Hypergraph(...); g.csr()``), module cycles (the summary join is
not an import, so cycles cost nothing), and dynamic registry dispatch
(lab ``ExperimentSpec`` registrations, ``Process(target=...)`` worker
spawns and the targets of :mod:`repro.core.workers` spawners are
surfaced as entrypoints rather than call edges).
"""

from __future__ import annotations

from typing import Iterable

from .index import ModuleIndex, ModuleSummary

__all__ = ["CallGraph", "node_id", "pretty_node"]


def node_id(module: str, qual: str) -> str:
    return f"{module}:{qual}"


def pretty_node(node: str) -> str:
    module, _, qual = node.partition(":")
    return module if qual == "<module>" else f"{module}.{qual}"


class CallGraph:
    """Edges between project functions + per-node external calls."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        self.edges: dict[str, set[str]] = {}
        #: node -> [(line, resolved, written)] calls leaving the project
        self.external: dict[str, list[tuple[int, str, str]]] = {}
        #: node -> owning summary (for finding paths)
        self.owner: dict[str, ModuleSummary] = {}
        for s in index.summaries:
            for qual in s.functions:
                self._node(s, qual)
            for qual, records in s.calls.items():
                caller = self._node(s, qual)
                for line, resolved, written in records:
                    self._add_call(caller, int(line), resolved, written)

    def _node(self, s: ModuleSummary, qual: str) -> str:
        node = node_id(s.module, qual)
        if node not in self.edges:
            self.edges[node] = set()
            self.owner[node] = s
        return node

    def _add_call(self, caller: str, line: int, resolved: str,
                  written: str) -> None:
        hit = self.index.resolve_symbol(resolved)
        if hit is None:
            self.external.setdefault(caller, []).append(
                (line, resolved, written))
            return
        s, qual = hit
        if qual in s.functions:
            self.edges[caller].add(self._node(s, qual))
        elif qual in s.classes:
            init = f"{qual}.__init__"
            if init in s.functions:
                self.edges[caller].add(self._node(s, init))
        # resolved-but-not-callable (module refs, constants): no edge.

    # -- entrypoint discovery -------------------------------------------

    def resolve_function(self, dotted: str) -> str | None:
        """Node id of an absolute dotted function name, or None."""
        hit = self.index.resolve_symbol(dotted)
        if hit is None:
            return None
        s, qual = hit
        if qual in s.functions:
            return node_id(s.module, qual)
        return None

    def runner_entrypoints(self) -> Iterable[tuple[str, str, list]]:
        """``(node, label, tags)`` for every registered spec runner.

        Registrations are taken from library modules only (``src/``);
        test fixtures constructing specs do not become entrypoints.
        A registration whose runner module is outside the analyzed set
        is skipped — the runner-signature rule reports broken ones.
        """
        seen: set[tuple] = set()
        for s in self.index.summaries:
            if not s.in_src:
                continue
            for reg in s.registrations:
                module, func = reg.get("module"), reg.get("func")
                if not isinstance(module, str) or not isinstance(func, str):
                    continue
                target = self.index.module(module)
                if target is None or func not in target.functions:
                    continue
                node = node_id(target.module, func)
                label = reg.get("name") or f"{module}.{func}"
                key = (node, label)
                if key in seen:
                    continue
                seen.add(key)
                yield node, label, list(reg.get("tags") or [])

    def worker_entrypoints(self) -> Iterable[tuple[str, str]]:
        """``(node, label)`` for every ``Process(target=...)`` spawn and
        every function a :mod:`repro.core.workers` spawner runs in a
        child."""
        seen: set[str] = set()
        for s in self.index.summaries:
            for tgt in s.worker_targets:
                node = self.resolve_function(tgt)
                if node is None or node in seen:
                    continue
                seen.add(node)
                yield node, pretty_node(node)

    def sim_entrypoints(self) -> Iterable[tuple[str, str]]:
        """``(node, label)`` for every registered sim-scheduler method.

        ``register_scheduler(name, Cls)`` is registry dispatch: the
        simulator instantiates ``Cls`` by name and calls its methods,
        so no static call edge reaches them.  Every method of the
        registered class — including inherited ones, walking the base
        chain — becomes an entrypoint, exactly like spec runners.
        Registrations in test fixtures (non-``src/`` files) are
        ignored.
        """
        seen: set[tuple] = set()
        for s in self.index.summaries:
            if not s.in_src:
                continue
            for reg in s.registrations:
                if reg.get("kind") != "sim-scheduler":
                    continue
                target = reg.get("target")
                if not isinstance(target, str):
                    continue
                label = reg.get("name") or target
                for node in self._class_method_nodes(target):
                    key = (node, label)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield node, label

    def mesh_entrypoints(self) -> Iterable[tuple[str, str]]:
        """``(node, label)`` for every mesh coroutine.

        The router's coroutines are driven by the asyncio server — no
        static call edge reaches them — and routing itself is part of
        the mesh's determinism contract (byte-identical assignment, no
        entropy, sequential job ids).  Every ``async def`` under
        ``src/repro/mesh/`` therefore becomes a root, mirroring the
        async-blocking pass's coroutine-root scope.
        """
        seen: set[str] = set()
        for s in self.index.summaries:
            if not s.in_src or "mesh" not in s.path.split("/"):
                continue
            for qual, meta in s.functions.items():
                if not meta.get("is_async"):
                    continue
                node = node_id(s.module, qual)
                if node in seen:
                    continue
                seen.add(node)
                yield node, pretty_node(node)

    def _class_method_nodes(self, dotted: str,
                            _seen: frozenset = frozenset(),
                            ) -> Iterable[str]:
        """All method nodes of the class ``dotted`` names, bases included."""
        if dotted in _seen:
            return
        hit = self.index.resolve_symbol(dotted)
        if hit is None:
            return
        s, qual = hit
        if qual not in s.classes:
            return
        prefix = qual + "."
        for fn in s.functions:
            if fn.startswith(prefix):
                yield node_id(s.module, fn)
        for base in s.classes[qual].get("bases", []):
            rebased = self.index._rebase(s, base, [])
            if rebased is not None:
                yield from self._class_method_nodes(
                    rebased, _seen | {dotted})
