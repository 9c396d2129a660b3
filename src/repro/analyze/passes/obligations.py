"""resource-safety and task-lifecycle — obligations discharged on every path.

Both rules are one analysis.  A call *creates an obligation* — an owned
resource must be released, a spawned asyncio task must be supervised —
and the obligation must not reach the function's normal exit or, the
headline case, its *exception* exit still live.  Each scope (the module
body and every function, once) is walked once for the creation sites of
both rules, lowered to one CFG (:mod:`repro.analyze.cfg`), and one
live-sites lattice is solved over it (:mod:`repro.analyze.absint`).  A
site that may reach an exit live is an error anchored at the creation
and carrying a replayable witness path (rendered into the message and
kept step by step in ``Finding.flow``).

``resource-safety`` (which superseded the syntactic ``shm-lifecycle``
rule) tracks owned resources; attaching to an existing segment is out
of scope:

* ``SharedArrays.create`` / ``SharedCSR.from_hypergraph`` /
  ``SharedMemory(create=True)`` — POSIX shared memory;
* ``RoundPool(...)`` / ``Workers(...)`` — forked worker pools;
* builtin ``open(...)`` — file handles;
* ``socket.socket(...)`` — sockets.

A ``close()`` / ``unlink()`` / ``release()`` / ``shutdown()`` /
``terminate()`` call on the handle releases it, and so does use as a
context manager (``with`` at the creation, or a later ``with handle:``).

``task-lifecycle`` tracks ``create_task`` / ``ensure_future`` results.
The event loop holds a task only *weakly*: a task nobody stores can be
garbage collected mid-flight, a task nobody awaits swallows its
exception until interpreter exit, and a task nobody cancels outlives
shutdown.  The mesh chaos runs surfaced exactly this class — a
fire-and-forget probe task silently dying and never marking shards
back up.  ``await``-ing the task, or ``.cancel()`` /
``.add_done_callback()`` on it, supervises it; a task spawned directly
under ``await`` is awaited on the spot.  A task stored on ``self`` is a
class-level obligation: *some* method of the same class must cancel,
await, or hand off that attribute (``stop()`` cancelling
``self._probe_task``); a task attribute no method ever discharges is
flagged at the creation site.

For both rules an ownership hand-off discharges the obligation: the
value is returned, yielded, stored on an object or in a container,
passed to another call, or aliased to another name — a different scope
owns the lifecycle now (the batcher's ``self._dispatch_tasks.add(task)``
is trusted).  A creation discarded on the spot is flagged
unconditionally.  Discharges commit on the exception edge too (if
``close()`` itself raises there is nothing more this function could
have done), and the lattice is branch-refined on ``x is None`` /
``x is not None`` tests, so the canonical ``pool = None ... finally: if
pool is not None: pool.close()`` shape proves clean instead of
false-positiving on the ``None`` arm.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..absint import solve, witness_path
from ..cfg import CFG, NO_DESCEND, build_cfg, walk_scope
from ..engine import Finding, SourceFile
from ..index import dotted

__all__ = ["analyze"]

#: Wrappers a value passes through on its way to what uses it.
_THROUGH = (ast.Starred, ast.IfExp, ast.NamedExpr, ast.keyword)
#: Parents that take a value out of this scope's hands.
_ESCAPES = (ast.Return, ast.Yield, ast.YieldFrom, ast.List, ast.Tuple,
            ast.Dict, ast.Set)


@dataclass(frozen=True)
class _Rule:
    """What one rule adds to the shared analysis."""

    id: str
    through: tuple             # wrappers seen through; tasks stop at
    #                            `await`, which discharges them
    discharge_attrs: frozenset  # method calls on the value that discharge
    managed: bool              # `with` discharges (and manages a creation)
    on_self: bool              # `self.x = ...` is a class-level obligation
    verb: str                  # witness: "<verb>@line"
    created: str               # flow step at the creation site
    live: str                  # flow note: "still <live>"
    at_exit: str               # flow note at the exit
    bare: str                  # message: creation discarded on the spot
    leak: str                  # message: may reach an exit live


_RESOURCES = _Rule(
    id="resource-safety", through=_THROUGH + (ast.Await,),
    discharge_attrs=frozenset({"close", "unlink", "release", "shutdown",
                               "terminate"}),
    managed=True, on_self=False, verb="acquire",
    created="'{name}' acquired here ({api})", live="unreleased",
    at_exit="'{name}' unreleased",
    bare="{kind} ({api}) is created and discarded; bind it and release "
         "it, wrap it in `with`, or hand ownership off — {note}",
    leak="{kind} '{name}' ({api}) may reach {exit} unreleased (witness: "
         "{witness}); release it in a `finally`, wrap it in `with`, or "
         "hand ownership off — {note}")

_TASKS = _Rule(
    id="task-lifecycle", through=_THROUGH,
    discharge_attrs=frozenset({"cancel", "add_done_callback"}),
    managed=False, on_self=True, verb="spawn",
    created="task '{name}' spawned here ({api})", live="unsupervised",
    at_exit="'{name}' neither awaited, cancelled, nor handed off",
    bare="task spawned by {api}() is discarded (fire-and-forget): its "
         "exception is swallowed and shutdown cannot cancel it; store it "
         "in a supervised set, await it, or cancel it on every shutdown "
         "path",
    leak="task '{name}' ({api}) may reach {exit} neither awaited, "
         "cancelled, nor stored in a supervised set (witness: {witness}); "
         "cancel it on the abandoning path or hand it to a supervised set "
         "with a done callback")

_RULES = (_RESOURCES, _TASKS)

_SPAWN_ATTRS = {"create_task", "ensure_future"}

#: last two components of a dotted creation call -> resource kind
#: (builtin ``open`` has only one).
_CREATE_TAILS = {
    "SharedArrays.create": "shared-memory handle",
    "SharedCSR.from_hypergraph": "shared-memory handle",
    "socket.socket": "socket",
    "open": "file handle",
}
#: last component of a dotted creation call -> resource kind.
_CREATE_LAST = {"RoundPool": "worker pool", "Workers": "worker pool"}

_LEAK_NOTE = {
    "shared-memory handle": ("a leaked owner segment survives in /dev/shm "
                             "until process exit (bpo-38119)"),
    "shared-memory segment": ("a leaked owner segment survives in /dev/shm "
                              "until process exit (bpo-38119)"),
    "worker pool": "forked workers and their pipes outlive the call",
    "file handle": "the descriptor stays open until GC happens to run",
    "socket": "the socket stays open until GC happens to run",
    "task": "",
}


def _creation(call: ast.Call) -> tuple[_Rule, str, str] | None:
    """``(rule, kind, api)`` when ``call`` creates an obligation."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _SPAWN_ATTRS:
        return _TASKS, "task", func.attr
    if isinstance(func, ast.Name) and func.id in _SPAWN_ATTRS:
        return _TASKS, "task", func.id
    name = dotted(func)
    parts = name.split(".")
    kind = (_CREATE_TAILS.get(".".join(parts[-2:]))
            or _CREATE_LAST.get(parts[-1]))
    if parts[-1] == "SharedMemory" and any(
            kw.arg == "create" and isinstance(kw.value, ast.Constant)
            and kw.value.value for kw in call.keywords):
        kind = "shared-memory segment"
    return None if kind is None else (_RESOURCES, kind, name)


@dataclass
class _Site:
    index: int
    rule: _Rule
    line: int
    name: str          # the bound variable
    kind: str          # human obligation kind
    api: str           # creation call as written
    call: ast.Call
    node_id: int = -1  # CFG node performing the creation


def _role(call: ast.Call, parents: dict, rule: _Rule) -> tuple[str, str]:
    """with / escape / bind / attr / bare classification of a creation."""
    child, parent = call, parents.get(call)
    while isinstance(parent, rule.through):
        child, parent = parent, parents.get(parent)
    if isinstance(parent, ast.withitem) and rule.managed:
        return "with", ""
    if isinstance(parent, ast.Call):
        return ("escape", "") if child is not parent.func else ("bare", "")
    if isinstance(parent, (*_ESCAPES, ast.Await)):
        return "escape", ""              # a task spawned under `await`
    if isinstance(parent, ast.Assign):
        targets = parent.targets
        if len(targets) == 1 and child is parent.value:
            t = targets[0]
            if isinstance(t, ast.Name):
                return "bind", t.id
            if (rule.on_self and isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"):
                return "attr", t.attr
        return "escape", ""
    return "bare", ""


def _handed_off(name: ast.Name, parents: dict, rule: _Rule) -> bool:
    """Does this Load of a tracked name hand the obligation elsewhere?"""
    child, parent = name, parents.get(name)
    while isinstance(parent, rule.through):
        child, parent = parent, parents.get(parent)
    if isinstance(parent, ast.Call):
        return child is not parent.func  # asyncio.wait, shield, set.add
    if isinstance(parent, ast.Await):
        return child is name             # `await t` (tasks only)
    # returned, yielded, put in a container, aliased or stored; reading
    # an attribute or subscript derives a value and hands nothing off
    return isinstance(parent, (*_ESCAPES, ast.Assign))


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
    if isinstance(stmt, NO_DESCEND):
        return list(getattr(stmt, "decorator_list", []))
    return [stmt]                                # simple stmt or test expr


class _Lattice:
    """State: frozenset of live (created, undischarged) site indices.

    Each CFG node's effect is precomputed once: the ``(rule id, name)``
    bindings it discharges or rebinds, then the site it creates.
    """

    def __init__(self, cfg: CFG, sites: list[_Site]) -> None:
        self.sites = sites
        self.keys = [(s.rule.id, s.name) for s in sites]
        self.effects: dict[int, tuple[set, int | None]] = {}
        tracked = set(self.keys)
        names = {s.name for s in sites}
        by_call = {id(s.call): s for s in sites}
        for node in cfg.nodes.values():
            roots = _effect_roots(node)
            if not roots:
                continue
            kill: set[tuple[str, str]] = set()
            parents: dict[ast.AST, ast.AST] = {}
            for sub in walk_scope(roots):
                for child in ast.iter_child_nodes(sub):
                    parents.setdefault(child, sub)
            for sub in walk_scope(roots):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)):
                    kill.update((r.id, sub.func.value.id) for r in _RULES
                                if sub.func.attr in r.discharge_attrs)
                elif (isinstance(sub, ast.Name) and sub.id in names
                        and isinstance(sub.ctx, ast.Load)):
                    kill.update((r.id, sub.id) for r in _RULES
                                if _handed_off(sub, parents, r))
            stmt = node.stmt
            if node.kind == "with":
                kill.update((r.id, item.context_expr.id)
                            for item in stmt.items for r in _RULES
                            if r.managed
                            and isinstance(item.context_expr, ast.Name))
            created = None
            if isinstance(stmt, ast.Assign):
                # a rebinding drops the old value: `x = make(x)` hands
                # the old handle off before the new binding exists
                kill.update((r.id, n.id) for t in stmt.targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)
                            for r in _RULES)
                site = by_call.get(id(stmt.value))
                if site is not None:
                    site.node_id = node.id
                    created = site.index
            kill &= tracked
            if kill or created is not None:
                self.effects[node.id] = (kill, created)

    def initial(self, cfg: CFG) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def widen(self, old: frozenset, new: frozenset) -> frozenset:
        return new

    def transfer(self, node, state: frozenset):
        effect = self.effects.get(node.id)
        if effect is None:
            return state, state
        kill, created = effect
        # committed on the exception edge too: once the close/await/
        # hand-off statement runs, this scope did its part; a failed
        # creation, though, created nothing
        state = frozenset(i for i in state if self.keys[i] not in kill)
        return (state if created is None else state | {created}), state

    def refine(self, edge, state: frozenset) -> frozenset:
        """``x is None`` / ``x is not None`` branch narrowing."""
        test = edge.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                and isinstance(test.left, ast.Name)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return state
        is_none = isinstance(test.ops[0], ast.Is)
        if (edge.kind == "true") == is_none:
            return frozenset(i for i in state
                             if self.sites[i].name != test.left.id)
        return state


def _scopes(tree: ast.Module):
    """The module, then every function once, with its class if a method."""
    yield tree, None
    owner: dict[ast.AST, ast.ClassDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update((sub, node) for sub in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, owner.get(node)


def _witness(cfg: CFG, sol, site: _Site, goal: int, exit_desc: str,
             path: str) -> tuple[str, tuple]:
    rule, name = site.rule, site.name
    edges = witness_path(
        cfg, site.node_id, [goal],
        lambda e: site.index in (sol.edge_state(e) or frozenset()))
    steps = [(path, site.line, rule.created.format(name=name, api=site.api))]
    parts = [f"{rule.verb}@{site.line}"]
    last_line = site.line
    for e in edges or []:
        line = cfg.nodes[e.src].line or last_line
        last_line = line
        if e.kind == "exc":
            steps.append((path, line,
                          f"exception raised here escapes with "
                          f"'{name}' still {rule.live}"))
            parts.append(f"raise@{line}")
    steps.append((path, last_line, f"reaches {exit_desc} with "
                  + rule.at_exit.format(name=name)))
    parts.append("raise-exit" if goal == cfg.raise_exit else "exit")
    return " -> ".join(parts), tuple(steps)


def _attr_discharged(cls_node: ast.ClassDef, attr: str) -> bool:
    """Does any method of the class cancel/await/hand off self.attr?"""
    parents: dict[ast.AST, ast.AST] = {}
    for sub in ast.walk(cls_node):
        for child in ast.iter_child_nodes(sub):
            parents.setdefault(child, sub)
    for sub in ast.walk(cls_node):
        if not (isinstance(sub, ast.Attribute) and sub.attr == attr
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and isinstance(sub.ctx, ast.Load)):
            continue
        parent = parents.get(sub)
        if (isinstance(parent, ast.Attribute)
                and parent.attr in _TASKS.discharge_attrs
                and isinstance(parents.get(parent), ast.Call)
                and parents[parent].func is parent):
            return True
        if isinstance(parent, ast.Await):
            return True
        if isinstance(parent, ast.Call) and sub is not parent.func:
            return True                  # shield(self._t), wait([...])
        if isinstance(parent, (ast.List, ast.Tuple, ast.Set,
                               ast.Starred)):
            return True
    return False


def analyze(sf: SourceFile) -> list[Finding]:
    """All resource-safety and task-lifecycle findings of one module
    (src-only scope)."""
    if not sf.in_src:
        return []
    findings: list[Finding] = []
    attr_checked: set[tuple[ast.ClassDef, str]] = set()
    for scope, cls in _scopes(sf.tree):
        parents: dict[ast.AST, ast.AST] = {}
        calls = []
        for node in walk_scope(scope.body):
            for child in ast.iter_child_nodes(node):
                parents.setdefault(child, node)
            if isinstance(node, ast.Call):
                made = _creation(node)
                if made is not None:
                    calls.append((node, *made))
        sites: list[_Site] = []
        for call, rule, kind, api in sorted(
                calls, key=lambda c: (c[0].lineno, c[0].col_offset)):
            role, name = _role(call, parents, rule)
            if role == "bare":
                findings.append(Finding(
                    path=sf.posix, line=call.lineno, rule=rule.id,
                    message=rule.bare.format(kind=kind, api=api,
                                             note=_LEAK_NOTE[kind])))
            elif role == "attr":
                if cls is None or (cls, name) in attr_checked:
                    continue
                attr_checked.add((cls, name))
                if not _attr_discharged(cls, name):
                    findings.append(Finding(
                        path=sf.posix, line=call.lineno, rule=rule.id,
                        message=f"task stored on self.{name} is never "
                                f"awaited, cancelled, or handed off by "
                                f"any method of {cls.name}; shutdown "
                                "leaks it and its exception is "
                                "swallowed"))
            elif role == "bind":
                sites.append(_Site(index=len(sites), rule=rule,
                                   line=call.lineno, name=name, kind=kind,
                                   api=api, call=call))
        if not sites:
            continue

        cfg = build_cfg(scope)
        sol = solve(cfg, _Lattice(cfg, sites))
        for site in sites:
            if site.node_id < 0:
                continue        # creation unreachable / not lowered
            goal = next((g for g in (cfg.raise_exit, cfg.exit)
                         if site.index in sol.inputs.get(g, frozenset())),
                        None)
            if goal is None:
                continue
            exit_desc = ("the exception exit" if goal == cfg.raise_exit
                         else "function exit")
            witness, flow = _witness(cfg, sol, site, goal, exit_desc,
                                     sf.posix)
            findings.append(Finding(
                path=sf.posix, line=site.line, rule=site.rule.id,
                message=site.rule.leak.format(
                    kind=site.kind, api=site.api, name=site.name,
                    exit=exit_desc, witness=witness,
                    note=_LEAK_NOTE[site.kind]),
                flow=flow))
    return findings
