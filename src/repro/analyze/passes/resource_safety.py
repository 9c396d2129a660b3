"""resource-safety — acquired resources are released on *every* path.

Supersedes the syntactic ``shm-lifecycle`` rule with a real dataflow
analysis: each function (and the module body) is lowered to a CFG
(:mod:`repro.analyze.cfg`) and an acquired→released lattice is solved
over it (:mod:`repro.analyze.absint`).  A resource that may reach the
function's normal exit — or, the headline case, its *exception* exit —
still acquired is an error, anchored at the acquisition site and
carrying a replayable witness path (rendered into the message and
kept step by step in ``Finding.flow``).

Tracked acquisitions (owned resources only; attaching to an existing
segment is out of scope exactly as before):

* ``SharedArrays.create`` / ``SharedCSR.from_hypergraph`` /
  ``SharedMemory(create=True)`` — POSIX shared memory;
* ``RoundPool(...)`` / ``Workers(...)`` — forked worker pools;
* builtin ``open(...)`` — file handles;
* ``socket.socket(...)`` — sockets.

What counts as the resource leaving the function's responsibility:

* a ``close()`` / ``unlink()`` / ``release()`` / ``shutdown()`` /
  ``terminate()`` method call on the handle (committed on the
  exception edge too — if ``close()`` itself raises there is nothing
  more this function could have done);
* use as a context manager (``with`` at the creation, or a later
  ``with handle:``);
* an ownership hand-off: returned, yielded, stored on an object or in
  a container, passed to another call, or aliased to another name —
  a different scope owns the lifecycle now.

The lattice is branch-refined on ``x is None`` / ``x is not None``
tests, so the canonical ``pool = None ... finally: if pool is not
None: pool.close()`` shape proves clean instead of false-positiving
on the ``None`` arm.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from ..absint import solve, witness_path
from ..cfg import CFG, build_cfg
from ..engine import Finding, SourceFile

__all__ = ["RULE", "analyze"]

RULE = "resource-safety"

_RELEASE_ATTRS = {"close", "unlink", "release", "shutdown", "terminate"}

#: last-two-components of a dotted creation call -> resource kind.
_CREATE_TAILS = {
    "SharedArrays.create": "shared-memory handle",
    "SharedCSR.from_hypergraph": "shared-memory handle",
    "socket.socket": "socket",
}

_LEAK_NOTE = {
    "shared-memory handle": ("a leaked owner segment survives in /dev/shm "
                             "until process exit (bpo-38119)"),
    "shared-memory segment": ("a leaked owner segment survives in /dev/shm "
                              "until process exit (bpo-38119)"),
    "worker pool": "forked workers and their pipes outlive the call",
    "file handle": "the descriptor stays open until GC happens to run",
    "socket": "the socket stays open until GC happens to run",
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


def _acquisition(call: ast.Call) -> tuple[str, str] | None:
    """``(kind, api)`` when ``call`` creates an owned resource."""
    dotted = _dotted(call.func)
    if not dotted:
        return None
    tail2 = ".".join(dotted.split(".")[-2:])
    if tail2 in _CREATE_TAILS:
        return _CREATE_TAILS[tail2], dotted
    last = dotted.split(".")[-1]
    if last == "SharedMemory":
        if any(kw.arg == "create"
               and isinstance(kw.value, ast.Constant) and kw.value.value
               for kw in call.keywords):
            return "shared-memory segment", dotted
        return None
    if last in ("RoundPool", "Workers"):
        return "worker pool", dotted
    if dotted == "open":
        return "file handle", dotted
    return None


def _scope_walk(roots: Iterable[ast.AST]) -> Iterable[ast.AST]:
    """Walk expression trees without entering nested def/class bodies."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NO_DESCEND):
            stack.extend(getattr(node, "decorator_list", []))
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class _Site:
    index: int
    line: int
    name: str          # bound variable ("" for discarded creations)
    kind: str          # human resource kind
    api: str           # dotted creation call as written
    call: ast.Call
    node_id: int = -1  # CFG node performing the acquisition


def _effect_roots(node) -> list[ast.AST]:
    """AST material executed *at* this CFG node (headers only)."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == "loop":                      # for: iter + target
        return [stmt.iter, stmt.target]
    if node.kind == "with":
        return [item.context_expr for item in stmt.items]
    if node.kind in ("dispatch", "handler", "with-cleanup"):
        return []
    if isinstance(stmt, _NO_DESCEND):
        return list(getattr(stmt, "decorator_list", []))
    return [stmt]                                # simple stmt or test expr


def _name_escapes(name_node: ast.Name, parents: dict) -> bool:
    """Does this Load of a tracked name hand ownership elsewhere?"""
    child, parent = name_node, parents.get(name_node)
    while parent is not None:
        if isinstance(parent, (ast.Attribute, ast.Subscript)) \
                and child is getattr(parent, "value", None):
            return False                     # derives a value, no hand-off
        if isinstance(parent, ast.Call) and child is not parent.func:
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom,
                               ast.List, ast.Tuple, ast.Dict, ast.Set)):
            return True
        if isinstance(parent, ast.Assign):
            return True                      # aliased or stored: hand-off
        if isinstance(parent, (ast.Starred, ast.IfExp, ast.NamedExpr,
                               ast.Await, ast.keyword)):
            child, parent = parent, parents.get(parent)
            continue
        return False
    return False


class _Effects:
    """Per-CFG-node resource effects, precomputed once."""

    def __init__(self, cfg: CFG, sites: list[_Site]) -> None:
        self.by_node: dict[int, list[tuple[str, object]]] = {}
        tracked = {s.name for s in sites if s.name}
        by_call = {id(s.call): s for s in sites}
        for node in cfg.nodes.values():
            roots = _effect_roots(node)
            if not roots:
                continue
            ops: list[tuple[str, object]] = []
            parents: dict[ast.AST, ast.AST] = {}
            for sub in _scope_walk(roots):
                for child in ast.iter_child_nodes(sub):
                    parents.setdefault(child, sub)
            for sub in _scope_walk(roots):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id in tracked
                        and sub.func.attr in _RELEASE_ATTRS):
                    ops.append(("release", sub.func.value.id))
                elif (isinstance(sub, ast.Name) and sub.id in tracked
                        and isinstance(sub.ctx, ast.Load)
                        and _name_escapes(sub, parents)):
                    ops.append(("handoff", sub.id))
            if node.kind == "with":
                for item in node.stmt.items:
                    if (isinstance(item.context_expr, ast.Name)
                            and item.context_expr.id in tracked):
                        ops.append(("release", item.context_expr.id))
            stmt = node.stmt
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name) and n.id in tracked:
                            ops.append(("rebind", n.id))
            site = (by_call.get(id(stmt.value))
                    if isinstance(stmt, ast.Assign) else None)
            if site is not None:
                site.node_id = node.id
                ops.append(("acquire", site.index))
            if ops:
                # releases/hand-offs first, rebinds next, acquire last:
                # `x = make(x)` releases the old handle before the new
                # binding exists.
                order = {"release": 0, "handoff": 0, "rebind": 1,
                         "acquire": 2}
                ops.sort(key=lambda op: order[op[0]])
                self.by_node[node.id] = ops


class _ResourceLattice:
    """State: frozenset of acquired site indices."""

    def __init__(self, sites: list[_Site], effects: _Effects) -> None:
        self.sites = sites
        self.effects = effects

    def initial(self, cfg: CFG) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def widen(self, old: frozenset, new: frozenset) -> frozenset:
        return new

    def _drop_name(self, state: frozenset, name: str) -> frozenset:
        return frozenset(i for i in state
                         if self.sites[i].name != name)

    def transfer(self, node, state: frozenset):
        ops = self.effects.by_node.get(node.id)
        if not ops:
            return state, state
        normal = exceptional = state
        for op, arg in ops:
            if op in ("release", "handoff", "rebind"):
                normal = self._drop_name(normal, arg)
                # committed on the exception edge too: once the close/
                # hand-off statement runs, this scope did its part.
                exceptional = self._drop_name(exceptional, arg)
            elif op == "acquire":
                # the acquisition's own exception edge keeps the
                # pre-state: a failed constructor acquired nothing.
                normal = normal | {arg}
        return normal, exceptional

    def refine(self, edge, state: frozenset) -> frozenset:
        """``x is None`` / ``x is not None`` branch narrowing."""
        test = edge.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.left, ast.Name)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return state
        is_none = isinstance(test.ops[0], ast.Is)
        none_branch = (edge.kind == "true") == is_none
        if none_branch:
            return self._drop_name(state, test.left.id)
        return state


def _role(call: ast.Call, parents: dict) -> tuple[str, str]:
    """with / escape / bind / bare classification of a creation call."""
    child, parent = call, parents.get(call)
    while parent is not None:
        if isinstance(parent, ast.withitem):
            return "with", ""
        if isinstance(parent, ast.Call) and child is not parent.func:
            return "escape", ""
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom,
                               ast.List, ast.Tuple, ast.Dict, ast.Set)):
            return "escape", ""
        if isinstance(parent, ast.Assign):
            targets = parent.targets
            if (len(targets) == 1 and isinstance(targets[0], ast.Name)
                    and child is parent.value):
                return "bind", targets[0].id
            return "escape", ""
        if isinstance(parent, (ast.Starred, ast.IfExp, ast.NamedExpr,
                               ast.Await, ast.keyword)):
            child, parent = parent, parents.get(parent)
            continue
        break
    return "bare", ""


def _scopes(tree: ast.Module):
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _witness(cfg: CFG, sol, site: _Site, goal: int, path: str,
             ) -> tuple[str, tuple]:
    edges = witness_path(
        cfg, site.node_id, [goal],
        lambda e: site.index in (sol.edge_state(e) or frozenset()))
    exc_desc = ("the exception exit" if goal == cfg.raise_exit
                else "function exit")
    steps = [(path, site.line,
              f"'{site.name}' acquired here ({site.api})")]
    parts = [f"acquire@{site.line}"]
    last_line = site.line
    for e in edges or []:
        line = cfg.nodes[e.src].line or last_line
        last_line = line
        if e.kind == "exc":
            steps.append((path, line,
                          f"exception raised here escapes with "
                          f"'{site.name}' still unreleased"))
            parts.append(f"raise@{line}")
    steps.append((path, last_line,
                  f"reaches {exc_desc} with '{site.name}' unreleased"))
    parts.append("raise-exit" if goal == cfg.raise_exit else "exit")
    return " -> ".join(parts), tuple(steps)


def analyze(sf: SourceFile, ex) -> list[Finding]:
    """All resource-safety findings of one module (src-only scope)."""
    if not sf.in_src:
        return []
    findings: list[Finding] = []
    for scope in _scopes(sf.tree):
        # creation sites and their syntactic roles, old-rule style
        parents: dict[ast.AST, ast.AST] = {}
        calls: list[tuple[ast.Call, str, str]] = []
        for node in _scope_walk(scope.body):
            for child in ast.iter_child_nodes(node):
                parents.setdefault(child, node)
            if isinstance(node, ast.Call):
                acq = _acquisition(node)
                if acq is not None:
                    calls.append((node, *acq))
        sites: list[_Site] = []
        for call, kind, api in sorted(calls,
                                      key=lambda c: (c[0].lineno,
                                                     c[0].col_offset)):
            role, name = _role(call, parents)
            if role in ("with", "escape"):
                continue
            if role == "bare":
                findings.append(Finding(
                    path=sf.posix, line=call.lineno, rule=RULE,
                    message=f"{kind} ({api}) is created and discarded; "
                            "bind it and release it, wrap it in `with`, "
                            "or hand ownership off — "
                            f"{_LEAK_NOTE[kind]}"))
                continue
            sites.append(_Site(index=len(sites), line=call.lineno,
                               name=name, kind=kind, api=api, call=call))
        if not sites:
            continue

        cfg = build_cfg(scope)
        effects = _Effects(cfg, sites)
        sol = solve(cfg, _ResourceLattice(sites, effects))
        for site in sites:
            if site.node_id < 0:
                continue        # acquisition unreachable / not lowered
            goal = None
            for candidate in (cfg.raise_exit, cfg.exit):
                if site.index in sol.inputs.get(candidate, frozenset()):
                    goal = candidate
                    break
            if goal is None:
                continue
            witness, flow = _witness(cfg, sol, site, goal, sf.posix)
            exit_desc = ("the exception exit" if goal == cfg.raise_exit
                         else "function exit")
            findings.append(Finding(
                path=sf.posix, line=site.line, rule=RULE,
                message=f"{site.kind} '{site.name}' ({site.api}) may "
                        f"reach {exit_desc} unreleased (witness: "
                        f"{witness}); release it in a `finally`, wrap "
                        "it in `with`, or hand ownership off — "
                        f"{_LEAK_NOTE[site.kind]}",
                flow=flow))
    findings.sort(key=lambda f: (f.line, f.message))
    return findings
