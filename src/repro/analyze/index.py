"""Module/symbol indexer — stage 1 and 2 of the analysis pipeline.

:func:`extract_summary` walks one parsed module **once** and distils it
into a :class:`ModuleSummary`: a small, JSON-serialisable record of
everything any rule or pass downstream needs — symbol tables, import
aliases, call targets resolved through those aliases, module-state
mutation facts, RNG-provenance facts, experiment-spec registrations,
``Process(target=...)`` worker entrypoints, the pragma table, and the
findings of the file-local rules (which consume the facts gathered by
this same walk; see :mod:`repro.analyze.rules`).

Summaries are what the incremental engine caches: they are derived
from file bytes alone, so a content-hash hit can skip parsing entirely
while the whole-program link/check stages still see exactly the data a
cold parse would have produced.

:class:`ModuleIndex` joins summaries into a project: dotted-name
resolution across modules, including ``from x import y as z`` aliasing
and re-exports through ``__init__.py`` chains.

Known, documented approximations:

* facts inside *nested* functions are attributed to the enclosing
  top-level function or method (over-approximate but sound for
  reachability);
* module-level statements execute at import time and are not edges in
  the call graph — import side effects are out of scope;
* a dotted call through an alias that was never imported (broken code)
  resolves to nothing and is skipped.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .engine import Finding, PragmaTable, SourceFile

__all__ = [
    "ENGINE_VERSION",
    "ModuleIndex",
    "ModuleSummary",
    "dotted",
    "extract_summary",
    "load_source",
    "module_name_for",
]

#: Bump to invalidate every cached summary (rule/pass/format changes).
ENGINE_VERSION = "analyze-v5.3"

#: Constructors whose result is an explicit, caller-owned Generator.
RNG_CONSTRUCTORS = {"numpy.random.default_rng", "numpy.random.Generator"}

#: Parameter names conventionally carrying a Generator (or seed).
RNG_PARAM_NAMES = {"rng", "gen", "generator", "random_state"}

#: The process-starting entry points of :mod:`repro.core.workers`; each
#: runs its first argument in a forked child.
SPAWNERS = frozenset({"repro.core.workers.start",
                      "repro.core.workers.Workers",
                      "repro.core.workers.fork_map"})

#: Constructors of thread-blocking locks.  ``with lock:`` on one is
#: recorded as a call to ``<constructor>.acquire``, so the
#: async-blocking pass sees a contended lock on a coroutine path.
SYNC_LOCKS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
    "multiprocessing.Lock", "multiprocessing.RLock",
})

#: Method names that mutate their receiver in place.  Applied only when
#: the receiver resolves to module-level state (this module's globals
#: or an imported module's attribute), so ``local_list.append`` never
#: fires.  ``acquire``/``release`` catch inherited-lock use after fork.
MUTATOR_METHODS = {
    "append", "appendleft", "add", "update", "clear", "pop", "popitem",
    "extend", "remove", "discard", "insert", "setdefault", "acquire",
    "release", "sort", "reverse", "push",
}

#: Parameter-name sets that mark a function as consuming CSR arrays
#: directly (the kernel-oracle anchor outside core/kernels.py).
_CSR_PARAM_SETS = (
    {"edge_ptr", "edge_pins"},
    {"ptr", "pins"},
    {"ptr", "adj"},
)


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path`` (layout-aware, stable).

    ``src/<pkg>/...`` maps to the import path, ``benchmarks/x.py`` to
    the bare stem (how the lab registry names bench runners), and
    ``tests/...`` to a ``tests.``-prefixed dotted path.  Anything else
    gets a path-derived fallback name that never collides with real
    import targets.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    for anchor, prefix in (("src", ""), ("tests", "tests."),
                           ("benchmarks", None)):
        if anchor in parts[:-1]:
            i = len(parts) - 2 - parts[-2::-1].index(anchor)
            rel = parts[i + 1:]
            if anchor == "benchmarks":
                return rel[-1] if rel else "benchmarks"
            if rel and rel[-1] == "__init__":
                rel = rel[:-1]
            base = ".".join(rel)
            if anchor == "tests":
                return prefix + base if base else "tests"
            return base or anchor
    rel = [p for p in parts if p not in ("/", "")]
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


@dataclass
class ModuleSummary:
    """Everything downstream stages need to know about one module."""

    path: str                                  # path as given (posix)
    module: str                                # dotted module name
    in_src: bool
    in_tests: bool
    is_init: bool
    functions: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    imports: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)          # qual -> [[line, resolved, written]]
    global_writes: dict = field(default_factory=dict)  # qual -> [[line, name]]
    #: ``Process(target=...)`` targets and first arguments of
    #: :data:`SPAWNERS` calls
    worker_targets: list = field(default_factory=list)
    rng_globals: list = field(default_factory=list)
    rng_draws: dict = field(default_factory=dict)      # qual -> [[line, kind, detail]]
    registrations: list = field(default_factory=list)
    referenced_names: list = field(default_factory=list)
    local_findings: list = field(default_factory=list)  # [[line, rule, msg]]
    #: CFG/abstract-interpretation findings of the path-sensitive
    #: passes, computed at extract time so the incremental cache
    #: replays them: ``[[line, rule, msg, [[line, note], ...]], ...]``
    #: (the flow's path component is this module's path, re-attached on
    #: deserialisation).
    path_findings: list = field(default_factory=list)
    pragmas: list = field(default_factory=list)

    def pragma_table(self) -> PragmaTable:
        return PragmaTable.from_json(self.pragmas)

    def findings(self) -> Iterable[Finding]:
        for line, rule, msg in self.local_findings:
            yield Finding(path=self.path, line=int(line), rule=rule,
                          message=msg)
        for line, rule, msg, flow in self.path_findings:
            yield Finding(path=self.path, line=int(line), rule=rule,
                          message=msg,
                          flow=tuple((self.path, int(ln), note)
                                     for ln, note in flow))

    def to_json(self) -> dict:
        return {
            "engine": ENGINE_VERSION,
            "path": self.path, "module": self.module,
            "in_src": self.in_src, "in_tests": self.in_tests,
            "is_init": self.is_init,
            "functions": self.functions, "classes": self.classes,
            "imports": self.imports, "calls": self.calls,
            "global_writes": self.global_writes,
            "worker_targets": self.worker_targets,
            "rng_globals": self.rng_globals, "rng_draws": self.rng_draws,
            "registrations": self.registrations,
            "referenced_names": self.referenced_names,
            "local_findings": self.local_findings,
            "path_findings": self.path_findings,
            "pragmas": self.pragmas,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ModuleSummary | None":
        if data.get("engine") != ENGINE_VERSION:
            return None
        kwargs = {k: data[k] for k in (
            "path", "module", "in_src", "in_tests", "is_init", "functions",
            "classes", "imports", "calls", "global_writes",
            "worker_targets", "rng_globals", "rng_draws", "registrations",
            "referenced_names", "local_findings", "path_findings",
            "pragmas")}
        return cls(**kwargs)


def load_source(path: Path, raw: bytes | None = None) -> SourceFile | None:
    """Decode + parse ``path`` (PEP 263 aware); None on broken input."""
    try:
        if raw is None:
            raw = Path(path).read_bytes()
        enc, _ = tokenize.detect_encoding(io.BytesIO(raw).readline)
        text = raw.decode(enc)
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError, UnicodeDecodeError, ValueError,
            LookupError):
        return None
    return SourceFile(path=Path(path), text=text, tree=tree,
                      pragmas=PragmaTable(text))


def dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.shuffle``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _FnCtx:
    """Per-(top-level function or method) extraction state."""

    def __init__(self, qual: str, cls: str | None, node=None) -> None:
        self.qual = qual
        self.cls = cls
        self.params: set[str] = set()
        self.rng_params: set[str] = set()
        self.rng_locals: dict[str, str] = {}   # var -> "param"|"local"
        self.local_types: dict[str, str] = {}  # var -> resolved class dotted
        self.globals_declared: set[str] = set()
        self.consumes_csr = False
        if node is not None:
            self.add_params(node)

    def add_params(self, node) -> None:
        a = node.args
        for arg in (list(getattr(a, "posonlyargs", [])) + list(a.args)
                    + list(a.kwonlyargs)):
            self.params.add(arg.arg)
            ann = getattr(arg, "annotation", None)
            if arg.arg in RNG_PARAM_NAMES or (
                    ann is not None and "Generator" in ast.dump(ann)):
                self.rng_params.add(arg.arg)
        for v in (a.vararg, a.kwarg):
            if v is not None:
                self.params.add(v.arg)


class Extractor:
    """One-walk fact collector over a parsed module.

    Besides the summary fields, it exposes the raw per-node collections
    (``compares``, ``handlers``, ``awaits``) that the file-local rules
    in :mod:`repro.analyze.rules` consume — one AST walk serves all of
    them.
    """

    def __init__(self, sf: SourceFile) -> None:
        self.sf = sf
        self.module = module_name_for(sf.path)
        self.summary = ModuleSummary(
            path=sf.posix, module=self.module,
            in_src=sf.in_src, in_tests=sf.in_tests,
            is_init=sf.path.name == "__init__.py",
            pragmas=sf.pragmas.to_json())
        # raw collections for the file-local rules (not serialised)
        self.compares: list = []            # (qual, ast.Compare)
        self.handlers: list = []            # ast.ExceptHandler
        self.awaits: list = []              # (line, callee, written, is_call)
        self.local_async: set[str] = set()
        self.call_records: list = []        # (qual, line, resolved, written)
        self._top_names: set[str] = set()
        #: "Class.attr" (a ``self.attr`` lock) or module-level name ->
        #: its :data:`SYNC_LOCKS` constructor
        self._sync_locks: dict[str, str] = {}
        self._referenced: set[str] = set()

    # -- name resolution ------------------------------------------------

    def resolve(self, dotted: str) -> str | None:
        """Absolute dotted target of a local dotted name, or None."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        imports = self.summary.imports
        if head in imports:
            return imports[head] + ("." + rest if rest else "")
        if head in self._top_names:
            return f"{self.module}.{dotted}"
        return None

    def _import_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        pkg = (self.module if self.summary.is_init
               else self.module.rpartition(".")[0])
        for _ in range(node.level - 1):
            pkg = pkg.rpartition(".")[0]
        if node.module:
            pkg = f"{pkg}.{node.module}" if pkg else node.module
        return pkg or None

    # -- extraction -----------------------------------------------------

    def run(self) -> ModuleSummary:
        tree = self.sf.tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        self.summary.imports[a.asname] = a.name
                    else:
                        root = a.name.partition(".")[0]
                        self.summary.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for a in node.names:
                    if a.name == "*":
                        continue
                    self.summary.imports[a.asname or a.name] = (
                        f"{base}.{a.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.AsyncFunctionDef):
                    self.local_async.add(node.name)
        for stmt in tree.body:
            self._scan_top_level(stmt)
            if isinstance(stmt, ast.ClassDef):
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        self._note_lock(sub, stmt.name)
            elif isinstance(stmt, ast.Assign):
                self._note_lock(stmt, None)
        mod_ctx = _FnCtx("<module>", None)
        for stmt in tree.body:
            self._visit(stmt, mod_ctx)
        if self.sf.in_tests:
            self.summary.referenced_names = sorted(self._referenced)
        return self.summary

    def _scan_top_level(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self._top_names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        self._top_names.add(n.id)
            value = stmt.value
            if isinstance(value, ast.Call):
                resolved = self.resolve(dotted(value.func))
                if resolved in RNG_CONSTRUCTORS:
                    for t in targets:
                        if isinstance(t, ast.Name):
                            self.summary.rng_globals.append(t.id)

    def _note_lock(self, stmt: ast.Assign, cls: str | None) -> None:
        if not isinstance(stmt.value, ast.Call):
            return
        ctor = self.resolve(dotted(stmt.value.func))
        if ctor not in SYNC_LOCKS:
            return
        for t in stmt.targets:
            if cls is None and isinstance(t, ast.Name):
                self._sync_locks[t.id] = ctor
            elif (cls is not None and isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"):
                self._sync_locks[f"{cls}.{t.attr}"] = ctor

    def _lock_ctor(self, expr: ast.AST, ctx: _FnCtx) -> str | None:
        """The :data:`SYNC_LOCKS` constructor of the lock ``expr`` names."""
        if isinstance(expr, ast.Name):
            ctor = ctx.local_types.get(expr.id) or (
                None if expr.id in ctx.params
                else self._sync_locks.get(expr.id))
        elif (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and ctx.cls):
            ctor = self._sync_locks.get(f"{ctx.cls}.{expr.attr}")
        else:
            return None
        return ctor if ctor in SYNC_LOCKS else None

    def _register_function(self, node, qual: str) -> None:
        a = node.args
        self.summary.functions[qual] = {
            "line": node.lineno,
            "is_async": isinstance(node, ast.AsyncFunctionDef),
            "posargs": [x.arg for x in
                        (list(getattr(a, "posonlyargs", []))
                         + list(a.args))],
            "kwonly": [x.arg for x in a.kwonlyargs],
            "vararg": a.vararg is not None,
            "kwarg": a.kwarg is not None,
            "consumes_csr": False,
        }

    def _visit(self, node: ast.AST, ctx: _FnCtx,
               cls: str | None = None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ctx.qual == "<module>":
                qual = f"{cls}.{node.name}" if cls else node.name
                fn_ctx = _FnCtx(qual, cls, node)
                self._register_function(node, qual)
            else:                      # nested def: fold into parent
                fn_ctx = ctx
                fn_ctx.add_params(node)
            self._note_reference(node.name)
            for child in ast.iter_child_nodes(node):
                self._visit(child, fn_ctx)
            if fn_ctx.qual in self.summary.functions:
                self.summary.functions[fn_ctx.qual]["consumes_csr"] = (
                    fn_ctx.consumes_csr or self._csr_params(fn_ctx))
            return
        if isinstance(node, ast.ClassDef):
            if ctx.qual == "<module>":
                name = f"{cls}.{node.name}" if cls else node.name
                self.summary.classes[name] = {
                    "line": node.lineno,
                    "bases": [dotted(b) for b in node.bases if dotted(b)],
                }
                for child in ast.iter_child_nodes(node):
                    self._visit(child, ctx, cls=name)
            else:                      # class inside a function: fold
                for child in ast.iter_child_nodes(node):
                    self._visit(child, ctx)
            return

        self._collect(node, ctx)
        for child in ast.iter_child_nodes(node):
            self._visit(child, ctx, cls=cls)

    def _csr_params(self, ctx: _FnCtx) -> bool:
        return any(s <= ctx.params for s in _CSR_PARAM_SETS)

    # -- per-node collection --------------------------------------------

    def _collect(self, node: ast.AST, ctx: _FnCtx) -> None:
        if isinstance(node, ast.Name):
            self._note_reference(node.id)
        elif isinstance(node, ast.Attribute):
            self._note_reference(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                self._note_reference(a.asname or a.name.partition(".")[0])
                self._note_reference(a.name.rpartition(".")[2])
        elif isinstance(node, ast.Global):
            ctx.globals_declared.update(node.names)
        elif isinstance(node, ast.Compare):
            self.compares.append((ctx, node))
        elif isinstance(node, ast.ExceptHandler):
            self.handlers.append(node)
        elif isinstance(node, ast.Await):
            self._collect_await(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._collect_assign(node, ctx)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            # `with ServeClient(...) as c:` types c exactly like
            # `c = ServeClient(...)` would, so calls on context-managed
            # locals resolve interprocedurally; `with lock:` calls the
            # lock's acquire.
            for item in node.items:
                ctor = self._lock_ctor(item.context_expr, ctx)
                if ctor is not None:
                    self._record_call(node.lineno, f"{ctor}.acquire",
                                      dotted(item.context_expr), ctx)
                if isinstance(item.optional_vars, ast.Name):
                    self._track_local_value(item.optional_vars.id,
                                            item.context_expr, ctx)
        elif isinstance(node, ast.Call):
            self._collect_call(node, ctx)

    def _note_reference(self, name: str) -> None:
        if self.sf.in_tests and name:
            self._referenced.add(name)

    def _collect_await(self, node: ast.Await) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            callee = (func.attr if isinstance(func, ast.Attribute)
                      else func.id if isinstance(func, ast.Name) else "")
            self.awaits.append((node.lineno, callee, dotted(value.func),
                                True))
        else:
            self.awaits.append((node.lineno, "", "", False))

    def _module_state_root(self, expr: ast.AST, ctx: _FnCtx) -> str | None:
        """Dotted name of module-level state an expression addresses.

        Walks down ``Attribute``/``Subscript`` chains to the root
        ``Name``; returns a dotted description when that root is a
        module-level binding of this module or an imported module
        alias (e.g. ``sys`` for ``sys.path``) — i.e. state shared
        across calls and, after a fork, with the parent's other work.
        """
        parts: list[str] = []
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            if isinstance(expr, ast.Attribute):
                parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        name = expr.id
        if name in ctx.params or name in ctx.local_types:
            return None
        if name in ctx.globals_declared or name in self._top_names:
            resolved = f"{self.module}.{name}"
        elif name in self.summary.imports:
            if not parts:
                # A bare imported-module receiver (``np.sort(...)``) is
                # a function call on that module, not a mutation of its
                # state; ``sys.path.insert`` keeps its attribute chain.
                return None
            resolved = self.summary.imports[name]
        else:
            return None
        return ".".join([resolved] + list(reversed(parts)))

    def _collect_assign(self, node, ctx: _FnCtx) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        if ctx.qual != "<module>":
            for t in targets:
                if isinstance(t, ast.Name):
                    if t.id in ctx.globals_declared:
                        self._record_write(node.lineno,
                                           f"{self.module}.{t.id}", ctx)
                    else:
                        self._track_local(t.id, node, ctx)
                elif isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = self._module_state_root(t, ctx)
                    if root is not None:
                        self._record_write(node.lineno, root, ctx)

    def _track_local(self, name: str, node, ctx: _FnCtx) -> None:
        self._track_local_value(name, getattr(node, "value", None), ctx)

    def _rng_born(self, value, ctx: _FnCtx) -> str | None:
        """Provenance of the Generator ``value`` evaluates to, or None.

        A constructor call is fed by a parameter (good), a
        constant/derived seed, or nothing at all (fresh OS entropy —
        never replayable).  ``a if p else b`` takes the worse branch.
        """
        if isinstance(value, ast.IfExp):
            borns = [self._rng_born(v, ctx)
                     for v in (value.body, value.orelse)]
            for born in ("unseeded", "const", "param"):
                if born in borns:
                    return born
            return None
        if isinstance(value, ast.Name):
            if value.id in ctx.rng_locals:
                return ctx.rng_locals[value.id]
            return "param" if value.id in ctx.rng_params else None
        if not (isinstance(value, ast.Call) and self.resolve(
                dotted(value.func)) in RNG_CONSTRUCTORS):
            return None
        for arg in ast.walk(value):
            if isinstance(arg, ast.Name) and arg.id in ctx.params:
                return "param"
        return "const" if value.args or value.keywords else "unseeded"

    def _track_local_value(self, name: str, value, ctx: _FnCtx) -> None:
        born = self._rng_born(value, ctx)
        if born is not None:
            ctx.rng_locals[name] = born
        elif isinstance(value, ast.Call):
            resolved = self.resolve(dotted(value.func))
            if (resolved is not None
                    and resolved.rpartition(".")[2][:1].isupper()):
                # Only constructor-shaped calls type a local ("g =
                # Hypergraph(...)"); "raw = os.environ.get(...)" must
                # not make raw.isdigit() look like an environ access.
                ctx.local_types[name] = resolved
        elif isinstance(value, ast.Name):
            if value.id in ctx.local_types:
                ctx.local_types[name] = ctx.local_types[value.id]

    def _record_write(self, line: int, name: str, ctx: _FnCtx) -> None:
        self.summary.global_writes.setdefault(ctx.qual, []).append(
            [line, name])

    def _record_call(self, line: int, resolved: str | None,
                     written: str, ctx: _FnCtx) -> None:
        if resolved is None:
            return
        self.summary.calls.setdefault(ctx.qual, []).append(
            [line, resolved, written])
        self.call_records.append((ctx.qual, line, resolved, written))

    def _resolve_call_target(self, func: ast.AST,
                             ctx: _FnCtx) -> tuple[str | None, str]:
        written = dotted(func)
        if not written:
            if isinstance(func, ast.Attribute):      # X(...).method etc.
                return None, func.attr
            return None, ""
        if isinstance(func, ast.Attribute):
            ctor = self._lock_ctor(func.value, ctx)
            if ctor is not None:
                return f"{ctor}.{func.attr}", written
        head, _, rest = written.partition(".")
        if head in ("self", "cls") and ctx.cls and rest:
            return f"{self.module}.{ctx.cls}.{rest}", written
        if head in ctx.rng_locals or head in ctx.params:
            # calls *on* rng locals are draws, handled in _collect_call
            return None, written
        if head in ctx.local_types and rest:
            return f"{ctx.local_types[head]}.{rest}", written
        resolved = self.resolve(written)
        if resolved is None and written == "open":
            # Builtin open (params/locals shadowing it returned above):
            # a blocking-I/O sink the async-blocking pass needs to see.
            return "builtins.open", written
        return resolved, written

    def _resolve_function_arg(self, expr: ast.AST,
                              ctx: _FnCtx) -> str | None:
        tgt, _w = self._resolve_call_target(expr, ctx)
        return tgt if tgt is not None else self.resolve(dotted(expr))

    def _collect_call(self, node: ast.Call, ctx: _FnCtx) -> None:
        resolved, written = self._resolve_call_target(node.func, ctx)
        self._record_call(node.lineno, resolved, written, ctx)

        # CSR consumption: `ptr, pins = graph.csr()` and friends.
        if written.endswith(".csr"):
            ctx.consumes_csr = True

        # Worker entrypoints: Process(target=fn) registers fn, and so
        # does the first argument of a repro.core.workers spawner.
        tail = written.rpartition(".")[2]
        if tail == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    tgt = self._resolve_function_arg(kw.value, ctx)
                    if tgt is not None:
                        self.summary.worker_targets.append(tgt)
        elif resolved in SPAWNERS and node.args:
            tgt = self._resolve_function_arg(node.args[0], ctx)
            if tgt is not None:
                self.summary.worker_targets.append(tgt)

        # Mutating method on module-level state (fork-safety fact).
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
                and ctx.qual != "<module>"):
            root = self._module_state_root(node.func.value, ctx)
            if root is not None:
                self._record_write(node.lineno,
                                   f"{root}.{node.func.attr}()", ctx)

        # RNG provenance facts.
        self._collect_rng(node, written, ctx)

        # Experiment-spec registrations (registry dispatch).
        if tail == "_bench" and len(node.args) >= 6:
            vals = [a.value if isinstance(a, ast.Constant) else None
                    for a in node.args[:6]]
            tags = ["smoke"]
            for kw in node.keywords:
                if kw.arg == "tags":
                    tags = self._tag_names(kw.value)
            self.summary.registrations.append({
                "name": vals[0], "module": vals[3], "func": vals[4],
                "check": vals[5], "line": node.lineno, "tags": tags})
        elif tail == "ExperimentSpec":
            kw = {k.arg: k.value for k in node.keywords if k.arg}
            const = {name: (v.value if isinstance(v, ast.Constant) else None)
                     for name, v in kw.items()}
            if "module" in kw or "func" in kw:
                self.summary.registrations.append({
                    "name": const.get("name"),
                    "module": const.get("module"),
                    "func": const.get("func"),
                    "check": const.get("check"),
                    "line": node.lineno,
                    "tags": (self._tag_names(kw["tags"])
                             if "tags" in kw else [])})
        elif tail == "register_scheduler" and len(node.args) >= 2:
            # Sim-scheduler registry dispatch: register_scheduler(name,
            # Cls) makes every method of Cls reachable by name at
            # simulate time (CallGraph.sim_entrypoints).
            name_arg = node.args[0]
            tgt = self._resolve_function_arg(node.args[1], ctx)
            self.summary.registrations.append({
                "kind": "sim-scheduler",
                "name": (name_arg.value
                         if isinstance(name_arg, ast.Constant) else None),
                "target": tgt, "line": node.lineno, "tags": []})

    @staticmethod
    def _tag_names(expr: ast.AST) -> list[str]:
        return sorted({n.id.lower() for n in ast.walk(expr)
                       if isinstance(n, ast.Name)
                       and n.id not in ("frozenset", "set", "tuple")})

    def _collect_rng(self, node: ast.Call, written: str,
                     ctx: _FnCtx) -> None:
        if ctx.qual == "<module>":
            return
        draws = self.summary.rng_draws
        head, _, rest = written.partition(".")
        if rest and "." not in rest:      # one-level method call x.m()
            if head in self.summary.rng_globals:
                draws.setdefault(ctx.qual, []).append(
                    [node.lineno, "global", head])
            elif head in ctx.rng_locals:
                draws.setdefault(ctx.qual, []).append(
                    [node.lineno, ctx.rng_locals[head], head])
            elif head in ctx.rng_params:
                draws.setdefault(ctx.qual, []).append(
                    [node.lineno, "param", head])
        for arg in list(node.args) + [k.value for k in node.keywords]:
            if (isinstance(arg, ast.Name)
                    and arg.id in self.summary.rng_globals):
                draws.setdefault(ctx.qual, []).append(
                    [node.lineno, "global-arg", arg.id])
            elif self._rng_born(arg, ctx) == "unseeded":
                draws.setdefault(ctx.qual, []).append(
                    [node.lineno, "unseeded-arg", ast.unparse(arg)])


def extract_summary(sf: SourceFile) -> ModuleSummary:
    """One-walk extraction: facts + file-local rule findings.

    The per-function CFG passes (resource-safety and task-lifecycle in
    one obligation pass, dtype-bounds) run here too: their verdicts
    depend on this module's bytes alone, so embedding them in the
    summary lets the incremental cache replay them without rebuilding
    a single CFG.
    """
    from . import rules
    from .passes import dtype_bounds, obligations

    ex = Extractor(sf)
    summary = ex.run()
    summary.local_findings = [
        [f.line, f.rule, f.message] for f in rules.run_local_rules(sf, ex)]
    summary.path_findings = [
        [f.line, f.rule, f.message, [[ln, note] for (_p, ln, note) in f.flow]]
        for f in (*obligations.analyze(sf), *dtype_bounds.analyze(sf))]
    return summary


# ---------------------------------------------------------------------------
# The linked program
# ---------------------------------------------------------------------------

class ModuleIndex:
    """All summaries of one analysis run, joined for cross-module work."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries = list(summaries)
        self.by_module: dict[str, ModuleSummary] = {}
        self.by_path: dict[str, ModuleSummary] = {}
        for s in self.summaries:
            self.by_module.setdefault(s.module, s)
            self.by_path[s.path] = s

    def module(self, name: str) -> ModuleSummary | None:
        return self.by_module.get(name)

    def resolve_symbol(
        self, dotted: str, _seen: frozenset = frozenset(),
    ) -> tuple[ModuleSummary, str] | None:
        """Resolve an absolute dotted name to ``(module, qualname)``.

        Follows re-export chains: if ``repro.analyze.__init__`` does
        ``from .engine import Finding`` then ``repro.analyze.Finding``
        resolves into ``repro.analyze.engine``.  Returns None for
        external names (numpy, stdlib, ...).
        """
        if dotted in _seen:
            return None
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            mod = ".".join(parts[:i])
            s = self.by_module.get(mod)
            if s is None:
                continue
            rest = parts[i:]
            if not rest:
                return (s, "<module>")
            qual = ".".join(rest)
            if qual in s.functions:
                return (s, qual)
            if qual in s.classes:
                return (s, qual)
            head = rest[0]
            if head in s.classes and len(rest) > 1:
                # method on a class, maybe inherited: try base classes
                for base in s.classes[head].get("bases", []):
                    rebased = self._rebase(s, base, rest[1:])
                    if rebased is not None:
                        hit = self.resolve_symbol(
                            rebased, _seen | {dotted})
                        if hit is not None:
                            return hit
                return None
            if head in s.imports:
                target = s.imports[head] + (
                    "." + ".".join(rest[1:]) if rest[1:] else "")
                return self.resolve_symbol(target, _seen | {dotted})
            return None
        return None

    def _rebase(self, s: ModuleSummary, base_dotted: str,
                rest: list[str]) -> str | None:
        head = base_dotted.partition(".")[0]
        if head in s.imports:
            resolved = s.imports[head] + base_dotted[len(head):]
        elif base_dotted in s.classes:
            resolved = f"{s.module}.{base_dotted}"
        else:
            return None
        return ".".join([resolved] + rest)
