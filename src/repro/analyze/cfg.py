"""Per-function control-flow graphs for the path-sensitive passes.

:func:`build_cfg` lowers one function body (or a module's top-level
statements) into a statement-level CFG: every simple statement is one
node, compound statements contribute a header node (``if``/``while``
tests, ``for`` iterators, ``with`` enters, ``try`` dispatch) plus the
nodes of their bodies, and two synthetic sinks terminate the graph —
``exit`` (normal return / fall-through) and ``raise_exit`` (an
exception escapes the function).

The edges are what the abstract interpreter in
:mod:`repro.analyze.absint` walks:

``next``
    ordinary sequential flow (including loop back edges);
``true`` / ``false``
    the two outcomes of a branch test — they carry the test
    expression so a lattice can *refine* the state per branch
    (``if pool is not None: pool.close()``, budget guards);
``exc``
    an **exception edge**: the statement contains a call, ``raise``
    or ``assert`` and may abandon the normal path mid-way.  Exception
    edges propagate the *pre*-state of the statement (the lattice may
    override per effect — a ``close()`` whose own call raises is still
    treated as released);
``loop``
    ``for`` iterator to loop body (one more item) — the paired
    ``next`` edge out of the iterator is loop exhaustion.

Exception routing follows the language: statements inside ``try``
raise into the handler dispatch node, unmatched exceptions and
abnormal exits (``return`` / ``break`` / ``continue``) route *through*
``finally`` regions before leaving, and every ``with`` body owns a
synthetic ``with-cleanup`` node modelling ``__exit__`` running on both
the normal and the exceptional path.  One deliberate approximation is
documented here once: a ``finally`` region is built a single time and
re-merged, so states from different abnormal routes join inside it
(sound for the may-analyses built on top, cheaper than duplication).

Nested ``def``/``class``/``lambda`` bodies are *not* part of the
enclosing CFG — they execute at call time, not here — but the defining
statement itself is a node (its decorators and defaults do run).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "Edge", "NO_DESCEND", "Node", "build_cfg", "walk_scope"]

#: Nested scopes: their bodies run at call time, not in this CFG.
NO_DESCEND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
              ast.ClassDef)


def walk_scope(roots):
    """Walk AST trees without entering nested def/class/lambda bodies
    (their decorators do run here)."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, NO_DESCEND):
            stack.extend(getattr(node, "decorator_list", []))
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class Node:
    """One program point: a statement, a test, or a synthetic marker."""

    id: int
    line: int
    kind: str                  # entry/exit/raise-exit/stmt/test/loop/
    #                            dispatch/with-cleanup/finally/join
    stmt: ast.AST | None = None
    label: str = ""


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str                  # next/true/false/exc/loop/return/break/continue
    test: ast.expr | None = field(default=None, compare=False)


@dataclass(frozen=True)
class _Target:
    """An abnormal-flow destination plus the finally regions crossed."""

    node: int
    cross: tuple = ()          # innermost _Frame first


class _Frame:
    """One active ``finally`` (or ``with``-cleanup) region."""

    def __init__(self, entry: int) -> None:
        self.entry = entry
        self.conts: set[tuple[str, _Target]] = set()


@dataclass
class _Ctx:
    exc: _Target
    ret: _Target
    brk: _Target | None = None
    cont: _Target | None = None

    def through(self, frame: _Frame) -> "_Ctx":
        """The same continuations, now crossing ``frame`` first."""
        def wrap(t: _Target | None) -> _Target | None:
            if t is None:
                return None
            return _Target(t.node, (frame,) + t.cross)
        return _Ctx(exc=wrap(self.exc), ret=wrap(self.ret),
                    brk=wrap(self.brk), cont=wrap(self.cont))


def _can_raise(stmt: ast.stmt) -> bool:
    """Statement-local raise potential: calls, ``raise``, ``assert``."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    roots: list[ast.AST]
    if isinstance(stmt, ast.If):
        roots = [stmt.test]
    elif isinstance(stmt, ast.While):
        roots = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.iter, stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [i.context_expr for i in stmt.items]
    elif isinstance(stmt, ast.Try):
        return False            # the body statements carry their own
    elif isinstance(stmt, NO_DESCEND):
        roots = list(getattr(stmt, "decorator_list", []))
        args = getattr(stmt, "args", None)
        if args is not None:
            roots += list(args.defaults) + [d for d in args.kw_defaults
                                            if d is not None]
    else:
        roots = [stmt]
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Call, ast.Await)):
            return True
        if isinstance(node, NO_DESCEND):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


class CFG:
    """Nodes + adjacency for one scope; built by :func:`build_cfg`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: dict[int, Node] = {}
        self.succs: dict[int, list[Edge]] = {}
        self.preds: dict[int, list[Edge]] = {}
        self.entry = self._new(0, "entry")
        self.exit = self._new(0, "exit")
        self.raise_exit = self._new(0, "raise-exit")

    def _new(self, line: int, kind: str, stmt: ast.AST | None = None,
             label: str = "") -> int:
        nid = len(self.nodes)
        self.nodes[nid] = Node(id=nid, line=line, kind=kind, stmt=stmt,
                               label=label)
        self.succs[nid] = []
        self.preds[nid] = []
        return nid

    def _edge(self, src: int, dst: int, kind: str = "next",
              test: ast.expr | None = None) -> None:
        e = Edge(src=src, dst=dst, kind=kind, test=test)
        if e in self.succs[src]:
            return
        self.succs[src].append(e)
        self.preds[dst].append(e)

    # -- queries used by passes and tests --------------------------------

    def edges(self):
        for edges in self.succs.values():
            yield from edges

    def exc_edges(self) -> list[Edge]:
        return [e for e in self.edges() if e.kind == "exc"]

    def nodes_at_line(self, line: int) -> list[Node]:
        return [n for n in self.nodes.values() if n.line == line]


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    # A *frontier* is a list of (node, kind, test) dangling out-edges
    # awaiting their destination.

    def seal(self, frontier, dst: int) -> None:
        for src, kind, test in frontier:
            self.cfg._edge(src, dst, kind, test)

    def route(self, src: int, kind: str, target: _Target) -> None:
        """Connect an abnormal jump, crossing pending finally regions."""
        if target.cross:
            frame = target.cross[0]
            rest = _Target(target.node, target.cross[1:])
            self.cfg._edge(src, frame.entry, kind)
            frame.conts.add((kind, rest))
        else:
            self.cfg._edge(src, target.node, kind)

    def drain(self, frame: _Frame, exits: list[int]) -> None:
        """Wire a finally region's recorded continuations out of it."""
        for kind, rest in sorted(frame.conts,
                                 key=lambda c: (c[0], c[1].node)):
            for src in exits:
                self.route(src, kind, rest)

    # -- statement lowering ----------------------------------------------

    def body(self, stmts, frontier, ctx: _Ctx):
        for stmt in stmts:
            if not frontier:
                break           # unreachable code after return/raise
            frontier = self.stmt(stmt, frontier, ctx)
        return frontier

    def stmt(self, stmt: ast.stmt, frontier, ctx: _Ctx):
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier, ctx)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier, ctx)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier, ctx)

        node = self.cfg._new(stmt.lineno, "stmt", stmt)
        self.seal(frontier, node)
        if isinstance(stmt, ast.Return):
            if _can_raise(stmt):
                self.route(node, "exc", ctx.exc)
            self.route(node, "return", ctx.ret)
            return []
        if isinstance(stmt, ast.Raise):
            self.route(node, "exc", ctx.exc)
            return []
        if isinstance(stmt, ast.Break) and ctx.brk is not None:
            self.route(node, "break", ctx.brk)
            return []
        if isinstance(stmt, ast.Continue) and ctx.cont is not None:
            self.route(node, "continue", ctx.cont)
            return []
        if _can_raise(stmt):
            self.route(node, "exc", ctx.exc)
        return [(node, "next", None)]

    def _if(self, stmt: ast.If, frontier, ctx: _Ctx):
        test = self.cfg._new(stmt.lineno, "test", stmt.test)
        self.seal(frontier, test)
        if _can_raise(stmt):
            self.route(test, "exc", ctx.exc)
        out = self.body(stmt.body, [(test, "true", stmt.test)], ctx)
        if stmt.orelse:
            out += self.body(stmt.orelse, [(test, "false", stmt.test)], ctx)
        else:
            out += [(test, "false", stmt.test)]
        return out

    def _while(self, stmt: ast.While, frontier, ctx: _Ctx):
        test = self.cfg._new(stmt.lineno, "test", stmt.test)
        after = self.cfg._new(stmt.lineno, "join")
        self.seal(frontier, test)
        if _can_raise(stmt):
            self.route(test, "exc", ctx.exc)
        loop_ctx = _Ctx(exc=ctx.exc, ret=ctx.ret,
                        brk=_Target(after), cont=_Target(test))
        out = self.body(stmt.body, [(test, "true", stmt.test)], loop_ctx)
        self.seal(out, test)    # back edge
        tail = self.body(stmt.orelse, [(test, "false", stmt.test)], ctx)
        self.seal(tail, after)
        return [(after, "next", None)]

    def _for(self, stmt, frontier, ctx: _Ctx):
        head = self.cfg._new(stmt.lineno, "loop", stmt)
        after = self.cfg._new(stmt.lineno, "join")
        self.seal(frontier, head)
        if _can_raise(stmt):
            self.route(head, "exc", ctx.exc)
        loop_ctx = _Ctx(exc=ctx.exc, ret=ctx.ret,
                        brk=_Target(after), cont=_Target(head))
        out = self.body(stmt.body, [(head, "loop", None)], loop_ctx)
        self.seal(out, head)    # back edge: next iteration
        tail = self.body(stmt.orelse, [(head, "next", None)], ctx)
        self.seal(tail, after)
        return [(after, "next", None)]

    def _with(self, stmt, frontier, ctx: _Ctx):
        enter = self.cfg._new(stmt.lineno, "with", stmt)
        self.seal(frontier, enter)
        if _can_raise(stmt):
            # the context expression itself raising: __exit__ never runs
            self.route(enter, "exc", ctx.exc)
        cleanup = self.cfg._new(stmt.lineno, "with-cleanup", stmt)
        frame = _Frame(cleanup)
        out = self.body(stmt.body, [(enter, "next", None)],
                        ctx.through(frame))
        self.seal(out, cleanup)
        self.drain(frame, [cleanup])
        return [(cleanup, "next", None)]

    def _try(self, stmt: ast.Try, frontier, ctx: _Ctx):
        frame: _Frame | None = None
        inner = ctx
        if stmt.finalbody:
            fin = self.cfg._new(stmt.finalbody[0].lineno, "finally")
            frame = _Frame(fin)
            inner = ctx.through(frame)

        body_ctx = inner
        dispatch: int | None = None
        if stmt.handlers:
            dispatch = self.cfg._new(stmt.lineno, "dispatch", stmt)
            body_ctx = _Ctx(exc=_Target(dispatch), ret=inner.ret,
                            brk=inner.brk, cont=inner.cont)

        out = self.body(stmt.body, frontier, body_ctx)
        out = self.body(stmt.orelse, out, inner)

        if dispatch is not None:
            for handler in stmt.handlers:
                h_entry = self.cfg._new(handler.lineno, "handler", handler)
                self.cfg._edge(dispatch, h_entry, "exc")
                out += self.body(handler.body, [(h_entry, "next", None)],
                                 inner)
            # no handler matched: the exception keeps propagating
            self.route(dispatch, "exc", inner.exc)

        if frame is not None:
            self.seal(out, frame.entry)
            fin_out = self.body(stmt.finalbody,
                                [(frame.entry, "next", None)], ctx)
            # Seal the finally body into one join first so branch edges
            # inside it keep their true/false tests (and therefore
            # their refinements — `if pool is not None: pool.close()`),
            # then fan the recorded continuations out of the join.
            finexit = self.cfg._new(stmt.finalbody[0].lineno, "join")
            self.seal(fin_out, finexit)
            self.drain(frame, [finexit])
            return [(finexit, "next", None)]
        return out


def build_cfg(scope: ast.AST, name: str = "") -> CFG:
    """CFG of a function def's (or module's) statement list."""
    label = name or getattr(scope, "name", "<module>")
    cfg = CFG(label)
    b = _Builder(cfg)
    ctx = _Ctx(exc=_Target(cfg.raise_exit), ret=_Target(cfg.exit))
    out = b.body(list(scope.body), [(cfg.entry, "next", None)], ctx)
    b.seal(out, cfg.exit)
    return cfg
