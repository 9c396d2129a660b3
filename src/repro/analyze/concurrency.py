"""Concurrency fact layer — extract-time facts for the v4 passes.

:func:`collect_concurrency` walks one parsed module and distils the
facts the check-stage concurrency passes (:mod:`.passes.lock_discipline`,
:mod:`.passes.fork_hygiene`) consume.  Everything here is derived from
the module's bytes alone and is JSON-serialisable, so the facts ride
inside :class:`~repro.analyze.index.ModuleSummary` and the incremental
cache replays them without re-parsing.

Collected facts (one dict, see ``collect_concurrency``):

``locks``
    lock/semaphore constructions — ``self.X = threading.Lock()`` in a
    method keys as ``Class.X``; a module-level ``X = asyncio.Lock()``
    keys as ``X``.  ``kind`` records the *flavour* of the primitive:
    ``sync`` (``threading``/``multiprocessing``) or ``async``
    (``asyncio``);
``executors``
    ``ThreadPoolExecutor``/``ProcessPoolExecutor`` constructions,
    keyed the same way;
``acquires``
    every lock acquisition — ``with lock:``, ``async with lock:`` or a
    ``lock.acquire()`` call — with the syntactic *held set*: the locks
    whose ``with`` blocks enclose this acquisition.  The held set is
    what the lock-order graph is built from;
``guarded_writes``
    ``self.Y = ...`` stores lexically inside a ``with lock:`` block,
    with the innermost guarding lock and its flavour — the mixed
    sync/async guard check joins these across methods;
``submits``
    executor submissions (``loop.run_in_executor(self._io, ...)``,
    ``self._io.submit(...)``) whose executor operand is *directly* a
    known executor attribute or name.  A conditionally selected
    executor (``a if p else b``) records nothing — the pass stays
    silent rather than guessing;
``spawns``
    ``Process(target=...)`` and :data:`~repro.analyze.index.SPAWNERS`
    call sites with the dotted roots of every argument expression but
    the target, so the fork-hygiene pass can see a live lock or
    executor crossing the fork boundary;
``resets``
    lines where :func:`repro.core.workers.reset_inherited_signals` is
    called, per function;
``ipc_unguarded``
    per function, IPC touches (pipe/queue method calls) *not
    dominated* by a ``reset_inherited_signals`` call — a must-reach
    boolean analysis over the function's CFG, solved with the same
    worklist engine as the path-sensitive passes.

Known approximations, documented once: the held set is lexical
(``acquire()``/``release()`` pairs spanning statements do not extend
it); locks are keyed by attribute name within one class, so two
instances of one class share a key (sound for ordering: both follow
the same code paths); facts inside nested functions are attributed to
the enclosing top-level function, with an *empty* held set (the nested
body runs at call time, not under the enclosing ``with``).
"""

from __future__ import annotations

import ast

from .absint import solve
from .cfg import build_cfg
from .engine import SourceFile
from .index import SPAWNERS

__all__ = ["collect_concurrency"]

#: Resolved constructors of synchronous (thread-blocking) primitives.
SYNC_LOCKS = {
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
    "multiprocessing.Lock", "multiprocessing.RLock",
}

#: Resolved constructors of asyncio (coroutine-suspending) primitives.
ASYNC_LOCKS = {
    "asyncio.Lock", "asyncio.Semaphore", "asyncio.BoundedSemaphore",
    "asyncio.Condition",
}

_EXECUTOR_TAILS = ("ThreadPoolExecutor", "ProcessPoolExecutor")

#: Pipe/queue methods a fork worker must not touch before resetting
#: inherited signal state (the fact is latent for ordinary functions;
#: the fork-hygiene pass consults it only for worker entrypoints).
IPC_METHODS = {
    "recv", "recv_bytes", "send", "send_bytes", "poll",
    "get_nowait", "put_nowait",
}

_NO_DESCEND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
               ast.ClassDef)


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _expr_walk(roots):
    """Walk expressions without entering nested def/class bodies."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NO_DESCEND):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _Collector:
    def __init__(self, sf: SourceFile, ex) -> None:
        self.sf = sf
        self.ex = ex                     # the Extractor (name resolution)
        self.facts: dict = {
            "locks": [], "executors": [], "acquires": [],
            "guarded_writes": [], "submits": [], "spawns": [],
            "resets": {}, "ipc_unguarded": {},
        }
        self.lock_kind: dict[str, str] = {}    # key -> sync|async
        self.exec_keys: set[str] = set()

    # -- phase 1: definitions -------------------------------------------

    def _classify_ctor(self, value) -> tuple[str, str] | None:
        if not isinstance(value, ast.Call):
            return None
        resolved = self.ex.resolve(_dotted(value.func))
        if resolved is None:
            return None
        if resolved in SYNC_LOCKS:
            return "lock", "sync"
        if resolved in ASYNC_LOCKS:
            return "lock", "async"
        if resolved.rpartition(".")[2] in _EXECUTOR_TAILS:
            return "executor", ""
        return None

    def _def_key(self, target, cls: str | None) -> str | None:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self" and cls):
            return f"{cls}.{target.attr}"
        if isinstance(target, ast.Name) and cls is None:
            return target.id
        return None

    def _scan_defs(self) -> None:
        def scan(body, cls):
            for stmt in body:
                if isinstance(stmt, ast.ClassDef) and cls is None:
                    scan(stmt.body, stmt.name)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Assign):
                            self._note_def(sub, cls)
                elif isinstance(stmt, ast.Assign):
                    self._note_def(stmt, cls)
        scan(self.sf.tree.body, None)

    def _note_def(self, stmt: ast.Assign, cls: str | None) -> None:
        got = self._classify_ctor(stmt.value)
        if got is None:
            return
        what, kind = got
        for target in stmt.targets:
            key = self._def_key(target, cls)
            if key is None:
                continue
            if what == "lock":
                self.lock_kind[key] = kind
                self.facts["locks"].append([stmt.lineno, key, kind])
            else:
                self.exec_keys.add(key)
                self.facts["executors"].append([stmt.lineno, key])

    # -- phase 2: per-function events -----------------------------------

    def _ref_key(self, expr, cls: str | None,
                 table) -> str | None:
        """Key of a ``self.X`` / bare-name reference into ``table``."""
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and cls):
            key = f"{cls}.{expr.attr}"
            return key if key in table else None
        if isinstance(expr, ast.Name) and expr.id in table:
            return expr.id
        return None

    def run(self) -> dict:
        self._scan_defs()
        for stmt in self.sf.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, stmt.name, None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        self._function(sub, f"{stmt.name}.{sub.name}",
                                       stmt.name)
        return self.facts

    def _function(self, node, qual: str, cls: str | None) -> None:
        self._stmts(node.body, qual, cls, [])
        self._ipc_dominance(node, qual, cls)

    def _stmts(self, body, qual, cls, held) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                mode = ("async" if isinstance(stmt, ast.AsyncWith)
                        else "sync")
                pushed = 0
                for item in stmt.items:
                    key = self._ref_key(item.context_expr, cls,
                                        self.lock_kind)
                    if key is not None:
                        self.facts["acquires"].append(
                            [qual, stmt.lineno, key, mode, list(held)])
                        held.append(key)
                        pushed += 1
                    else:
                        self._exprs([item.context_expr], stmt, qual,
                                    cls, held)
                self._stmts(stmt.body, qual, cls, held)
                del held[len(held) - pushed:]
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # nested def: events attributed to the enclosing
                # function, but the body runs at call time — held set
                # does not apply.
                self._stmts(stmt.body, qual, cls, [])
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub:
                    self._stmts(sub, qual, cls, held)
            for handler in getattr(stmt, "handlers", []):
                self._stmts(handler.body, qual, cls, held)
            self._stmt_events(stmt, qual, cls, held)

    def _stmt_events(self, stmt, qual, cls, held) -> None:
        if isinstance(stmt, ast.Assign) and held:
            for target in stmt.targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self" and cls):
                        key = held[-1]
                        self.facts["guarded_writes"].append(
                            [qual, stmt.lineno, f"{cls}.{sub.attr}",
                             key, self.lock_kind.get(key, "sync")])
        roots = [v for v in ast.iter_child_nodes(stmt)
                 if isinstance(v, ast.expr)]
        if isinstance(stmt, (ast.If, ast.While)):
            roots = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            roots = [stmt.iter]
        self._exprs(roots, stmt, qual, cls, held)

    def _exprs(self, roots, stmt, qual, cls, held) -> None:
        awaited: set[int] = set()
        for sub in _expr_walk(roots):
            if isinstance(sub, ast.Await):
                for inner in _expr_walk([sub.value]):
                    awaited.add(id(inner))
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                if func.attr == "acquire":
                    key = self._ref_key(func.value, cls, self.lock_kind)
                    if key is not None:
                        mode = ("async" if id(sub) in awaited else "sync")
                        self.facts["acquires"].append(
                            [qual, sub.lineno, key, mode, list(held)])
                elif func.attr == "run_in_executor" and sub.args:
                    key = self._ref_key(sub.args[0], cls, self.exec_keys)
                    if key is not None:
                        self.facts["submits"].append(
                            [qual, sub.lineno, key])
                elif func.attr == "submit":
                    key = self._ref_key(func.value, cls, self.exec_keys)
                    if key is not None:
                        self.facts["submits"].append(
                            [qual, sub.lineno, key])
            dotted = _dotted(func)
            if dotted.rpartition(".")[2] == "Process":
                operands = list(sub.args) + [kw.value for kw in sub.keywords
                                             if kw.arg != "target"]
            elif self.ex.resolve(dotted) in SPAWNERS and sub.args:
                operands = sub.args[1:] + [kw.value for kw in sub.keywords]
            else:
                continue
            argroots: list[str] = []
            for arg in operands:
                for n in _expr_walk([arg]):
                    d = _dotted(n)
                    if d:
                        argroots.append(d)
            # _expr_walk yields sub-chains too ("self" under
            # "self._lock"): keep only maximal dotted names, first
            # seen (source) order, for stable messages
            maximal = [d for d in argroots
                       if not any(o != d and o.startswith(d + ".")
                                  for o in argroots)]
            seen: set[str] = set()
            argroots = [d for d in maximal
                        if not (d in seen or seen.add(d))]
            self.facts["spawns"].append([qual, sub.lineno, argroots])

    # -- phase 3: reset-dominates-IPC (CFG must-analysis) ---------------

    def _is_reset_call(self, call: ast.Call) -> bool:
        dotted = _dotted(call.func)
        if dotted.rpartition(".")[2] != "reset_inherited_signals":
            return False
        resolved = self.ex.resolve(dotted)
        return resolved is None or resolved.endswith(
            ".reset_inherited_signals")

    def _ipc_calls(self, roots) -> list[tuple[int, str]]:
        out = []
        for sub in _expr_walk(roots):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in IPC_METHODS):
                out.append((sub.lineno, _dotted(sub.func)
                            or sub.func.attr))
        return out

    def _ipc_dominance(self, node, qual: str, cls) -> None:
        body_exprs = [s for s in ast.walk(node)]
        has_ipc = any(
            isinstance(s, ast.Call) and isinstance(s.func, ast.Attribute)
            and s.func.attr in IPC_METHODS for s in body_exprs)
        resets = sorted({s.lineno for s in body_exprs
                         if isinstance(s, ast.Call)
                         and self._is_reset_call(s)})
        if resets:
            self.facts["resets"][qual] = resets
        if not has_ipc:
            return
        cfg = build_cfg(node)
        collector = self

        class _MustReset:
            def initial(self, _cfg):
                return False

            def join(self, a, b):
                return a and b

            def widen(self, old, new):
                return new

            def refine(self, edge, state):
                return state

            def transfer(self, cfg_node, state):
                roots = self._roots(cfg_node)
                if any(isinstance(s, ast.Call)
                       and collector._is_reset_call(s)
                       for r in roots for s in _expr_walk([r])):
                    # the reset may not have happened if the statement
                    # itself raised mid-way: exceptional keeps pre-state
                    return True, state
                return state, state

            @staticmethod
            def _roots(cfg_node):
                stmt = cfg_node.stmt
                if stmt is None or isinstance(stmt, _NO_DESCEND):
                    return []
                if cfg_node.kind == "loop":
                    return [stmt.iter, stmt.target]
                if cfg_node.kind == "with":
                    return [i.context_expr for i in stmt.items]
                if cfg_node.kind in ("dispatch", "handler",
                                     "with-cleanup"):
                    return []
                return [stmt]

        lattice = _MustReset()
        sol = solve(cfg, lattice)
        undominated: list[list] = []
        for cfg_node in cfg.nodes.values():
            roots = _MustReset._roots(cfg_node)
            if not roots:
                continue
            touches = self._ipc_calls(roots)
            if not touches:
                continue
            if sol.inputs.get(cfg_node.id) is not True:
                undominated.extend([line, api] for line, api in touches)
        if undominated:
            undominated.sort()
            self.facts["ipc_unguarded"][qual] = undominated


def collect_concurrency(sf: SourceFile, ex) -> dict:
    """All concurrency facts of one module (see module docstring)."""
    return _Collector(sf, ex).run()
