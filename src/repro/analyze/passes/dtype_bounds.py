"""dtype-bounds — int32 casts and accumulations proven overflow-free.

The ROADMAP's scale target is 10^6–10^7 pins, and the kernels keep
dense buffers in ``int32`` to halve their footprint — correct only
while every value written into one stays below 2**31 - 1.  This pass
turns that hope into a proof obligation: a function opts in with a
bounds annotation ::

    # repro: bounds(k <= 4096, len(codes) <= 1e7)

and the pass runs an abstract interpretation of its numpy expressions
over the function's CFG in a *(elem, size)* magnitude domain — ``elem``
bounds the largest absolute value an expression can hold, ``size``
bounds its length.  Terms: ``name <= N`` bounds ``elem`` (seeding the
parameter's initial state, or re-applied at every assignment to a
local), ``len(name) <= N`` bounds ``size``.  Transfer functions cover
the kernel vocabulary (``bincount`` output is bounded by its input's
*length*; ``cumsum`` by ``elem * size``; arithmetic composes bounds;
unknown calls go to unbounded, repairable by an annotation term on the
result name), branches refine (``if n > c: raise`` proves ``n <= c``
afterwards), and loops widen — a bound still growing after a few
iterations jumps to unbounded instead of counting up forever.

After the fixpoint, two checks run at each program point:

* every ``.astype(np.int32)`` / ``np.int32(...)`` cast site must have
  the castee's ``elem`` bound ≤ 2147483647;
* every ``+=``/``-=``/``*=`` into an int32-allocated array must keep
  the result bounded — loop accumulation that widens to unbounded is
  exactly the silent-wraparound bug this catches.

Unannotated functions are skipped (the annotation is the declared
scale contract; without one there is nothing to prove against), and a
malformed or unattached annotation is itself a finding.
"""

from __future__ import annotations

import ast
import math
import re
import tokenize
from dataclasses import dataclass, field

from ..absint import solve
from ..cfg import CFG, NO_DESCEND, build_cfg, walk_scope
from ..engine import Finding, SourceFile
from ..index import dotted

__all__ = ["RULE", "INT32_MAX", "analyze"]

RULE = "dtype-bounds"
INT32_MAX = 2147483647

_ANN_RE = re.compile(r"#\s*repro:\s*bounds\((?P<terms>.*)\)")
_TERM_RE = re.compile(
    r"^\s*(?:len\(\s*(?P<lenname>\w+)\s*\)|(?P<name>\w+))"
    r"\s*<=\s*(?P<bound>[0-9][0-9_.eE+]*)\s*$")

_INF = math.inf


def _fmt(bound: float) -> str:
    return "unbounded" if bound == _INF else f"{bound:.10g}"


@dataclass
class _Annotation:
    line: int
    raw: str
    elems: dict = field(default_factory=dict)   # name -> elem bound
    sizes: dict = field(default_factory=dict)   # name -> size bound

    def merge(self, other: "_Annotation") -> None:
        for name, b in other.elems.items():
            self.elems[name] = min(self.elems.get(name, _INF), b)
        for name, b in other.sizes.items():
            self.sizes[name] = min(self.sizes.get(name, _INF), b)

    def meet(self, name: str, val: tuple) -> tuple:
        return (min(val[0], self.elems.get(name, _INF)),
                min(val[1], self.sizes.get(name, _INF)))


def _parse_annotations(sf: SourceFile) -> tuple[list, list]:
    """(annotations, malformed-findings) from comment tokens."""
    anns: list[_Annotation] = []
    bad: list[Finding] = []
    if "bounds(" not in sf.text:     # every _ANN_RE match contains it
        return anns, bad
    try:
        tokens = list(tokenize.generate_tokens(
            iter(sf.text.splitlines(keepends=True)).__next__))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _ANN_RE.search(tok.string)
        if m is None:
            continue
        line = tok.start[0]
        raw = m.group("terms").strip()
        ann = _Annotation(line=line, raw=raw)
        ok = bool(raw)
        for term in raw.split(","):
            tm = _TERM_RE.match(term)
            if tm is None:
                ok = False
                break
            bound = float(tm.group("bound").replace("_", ""))
            if tm.group("lenname"):
                ann.sizes[tm.group("lenname")] = bound
            else:
                ann.elems[tm.group("name")] = bound
        if ok:
            anns.append(ann)
        else:
            bad.append(Finding(
                path=sf.posix, line=line, rule=RULE,
                message=f"malformed bounds annotation '({raw})': terms "
                        "must be 'name <= NUMBER' or 'len(name) <= "
                        "NUMBER', comma-separated"))
    return anns, bad


def _roots(node) -> list[ast.AST]:
    """AST material executed *at* this CFG node (headers only)."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == "loop":
        return [stmt.iter]
    if node.kind == "with":
        return [item.context_expr for item in stmt.items]
    if node.kind in ("dispatch", "handler", "with-cleanup"):
        return []
    if isinstance(stmt, NO_DESCEND):
        return list(getattr(stmt, "decorator_list", []))
    return [stmt]


def _is_int32(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Constant):
        return expr.value == "int32"
    return dotted(expr).split(".")[-1:] == ["int32"]


def _int32_arrays(fn) -> set[str]:
    """Names allocated as int32 arrays inside ``fn`` (syntactic)."""
    names: set[str] = set()
    for node in walk_scope(fn.body):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        tail = dotted(call.func).split(".")[-1]
        if tail in ("zeros", "empty", "full", "ones"):
            if any(kw.arg == "dtype" and _is_int32(kw.value)
                   for kw in call.keywords):
                names.add(node.targets[0].id)
        elif (isinstance(call.func, ast.Attribute)
                and call.func.attr == "astype"
                and any(_is_int32(a) for a in call.args)):
            names.add(node.targets[0].id)
        elif tail == "int32":
            names.add(node.targets[0].id)
    return names


# ---------------------------------------------------------------------------
# Abstract evaluation: expr -> (elem bound, size bound)
# ---------------------------------------------------------------------------

_PASS_THROUGH = {"reshape", "astype", "sort", "unique", "copy", "ravel",
                 "flatten", "ascontiguousarray", "asarray", "abs"}
_FILL = {"zeros": 0.0, "ones": 1.0, "empty": _INF}


def _size_of_shape(shape: ast.AST) -> float:
    if isinstance(shape, ast.Constant) and isinstance(shape.value,
                                                      (int, float)):
        return float(shape.value)
    if isinstance(shape, ast.Tuple):
        total = 1.0
        for elt in shape.elts:
            d = _size_of_shape(elt)
            if d == _INF:
                return _INF
            total *= d
        return total
    return _INF


def _eval(expr, state: dict, ann: _Annotation) -> tuple:
    top = (_INF, _INF)
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)):
            return (_INF, 1.0)
        return (abs(float(expr.value)), 1.0)
    if isinstance(expr, ast.Name):
        return ann.meet(expr.id, state.get(expr.id, top))
    if isinstance(expr, ast.UnaryOp):
        return _eval(expr.operand, state, ann)
    if isinstance(expr, ast.BinOp):
        return _eval_binop(expr.op, _eval(expr.left, state, ann),
                           _eval(expr.right, state, ann))
    if isinstance(expr, ast.IfExp):
        a = _eval(expr.body, state, ann)
        b = _eval(expr.orelse, state, ann)
        return (max(a[0], b[0]), max(a[1], b[1]))
    if isinstance(expr, (ast.Tuple, ast.List)):
        vals = [_eval(e, state, ann) for e in expr.elts]
        return (max((v[0] for v in vals), default=0.0),
                float(len(expr.elts)))
    if isinstance(expr, ast.Subscript):
        return _eval_subscript(expr, state, ann)
    if isinstance(expr, ast.Attribute):
        if expr.attr == "size":
            return (_eval(expr.value, state, ann)[1], 1.0)
        if expr.attr == "itemsize":
            return (8.0, 1.0)
        return top
    if isinstance(expr, ast.Call):
        return _eval_call(expr, state, ann)
    return top


def _eval_binop(op, a: tuple, b: tuple) -> tuple:
    size = max(a[1], b[1])                       # broadcast
    if isinstance(op, (ast.Add, ast.Sub)):
        return (a[0] + b[0], size)
    if isinstance(op, ast.Mult):
        if 0.0 in (a[0], b[0]):
            return (0.0, size)
        return (a[0] * b[0], size)
    if isinstance(op, (ast.Div, ast.FloorDiv)):
        return (a[0], size)
    if isinstance(op, ast.Mod):
        return (min(a[0], b[0]), size)
    if isinstance(op, ast.Pow):
        if a[0] == _INF or b[0] == _INF or b[0] > 64:
            return (_INF, size)
        return (a[0] ** b[0], size)
    return (_INF, size)


def _eval_subscript(expr: ast.Subscript, state, ann) -> tuple:
    base = _eval(expr.value, state, ann)
    idx = expr.slice
    # x.shape[i] is a dimension of x: bounded by x's total size.
    if (isinstance(expr.value, ast.Attribute)
            and expr.value.attr == "shape"):
        return (_eval(expr.value.value, state, ann)[1], 1.0)
    if isinstance(idx, ast.Slice):
        return base                              # x[1:] keeps bounds
    if isinstance(idx, ast.Constant):
        return (base[0], 1.0)                    # scalar element
    return (base[0], _eval(idx, state, ann)[1])  # fancy: labels[pins]


def _eval_call(call: ast.Call, state, ann) -> tuple:
    top = (_INF, _INF)
    name = dotted(call.func)
    # ``dotted`` can't name a chain rooted at a call expression
    # (np.bincount(...).reshape); the method name is still the attr.
    tail = (call.func.attr if isinstance(call.func, ast.Attribute)
            else name.split(".")[-1])
    recv = None
    if isinstance(call.func, ast.Attribute):
        head = call.func.value
        if isinstance(head, ast.Name):
            # A bare name not in the state is a module alias (np.sort);
            # a tracked name is a value receiver (codes.cumsum).
            if head.id in state:
                recv = _eval(head, state, ann)
        else:
            # chained expression receiver: np.bincount(...).reshape(...)
            recv = _eval(head, state, ann)
    args = [_eval(a, state, ann) for a in call.args]
    first = args[0] if args else (recv or top)

    if tail == "len" and name == "len" and args:
        return (first[1], 1.0)
    if tail == "bincount":
        # counts are bounded by how many items were counted (the
        # input's *length*); output length by max value + 1 / minlength.
        minlength = 0.0
        for kw in call.keywords:
            if kw.arg == "minlength":
                minlength = _eval(kw.value, state, ann)[0]
        return (first[1], max(minlength, first[0] + 1.0))
    if tail in _PASS_THROUGH:
        src = recv if recv is not None else (args[0] if args else top)
        return src
    if tail == "arange" and args:
        return (first[0], first[0])
    if tail == "cumsum":
        src = recv if recv is not None else first
        return (src[0] * src[1] if src[0] != 0.0 else 0.0, src[1])
    if tail == "sum":
        src = recv if recv is not None else first
        return (src[0] * src[1] if src[0] != 0.0 else 0.0, 1.0)
    if tail in ("max", "min"):
        src = recv if recv is not None else first
        return (src[0], 1.0)
    if tail == "diff":
        src = recv if recv is not None else first
        return (src[0], src[1])
    if tail in _FILL or tail == "full":
        size = _size_of_shape(call.args[0]) if call.args else _INF
        if tail == "full":
            elem = args[1][0] if len(args) > 1 else _INF
        else:
            elem = _FILL[tail]
        return (elem, size)
    return top


# ---------------------------------------------------------------------------
# Lattice over variable environments
# ---------------------------------------------------------------------------

class _BoundsLattice:
    def __init__(self, fn, ann: _Annotation) -> None:
        self.fn = fn
        self.ann = ann

    def initial(self, cfg: CFG) -> dict:
        state = {}
        a = self.fn.args
        for arg in (list(getattr(a, "posonlyargs", [])) + list(a.args)
                    + list(a.kwonlyargs)):
            state[arg.arg] = self.ann.meet(arg.arg, (_INF, _INF))
        return state

    def join(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for name, val in b.items():
            cur = out.get(name)
            out[name] = (val if cur is None
                         else (max(cur[0], val[0]), max(cur[1], val[1])))
        return out

    def widen(self, old: dict, new: dict) -> dict:
        out = {}
        for name, val in new.items():
            cur = old.get(name)
            if cur is None:
                out[name] = val
            else:
                out[name] = (val[0] if val[0] <= cur[0] else _INF,
                             val[1] if val[1] <= cur[1] else _INF)
        return out

    def transfer(self, node, state: dict):
        stmt = node.stmt
        new = state
        if node.kind == "loop" and isinstance(stmt.target, ast.Name):
            src = _eval(stmt.iter, state, self.ann)
            new = dict(state)
            new[stmt.target.id] = self.ann.meet(stmt.target.id,
                                                (src[0], 1.0))
        elif isinstance(stmt, ast.Assign):
            if (len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                name = stmt.targets[0].id
                new = dict(state)
                new[name] = self.ann.meet(
                    name, _eval(stmt.value, state, self.ann))
            else:
                new = dict(state)
                for t in stmt.targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            new[n.id] = self.ann.meet(n.id, (_INF, _INF))
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and isinstance(stmt.target, ast.Name)):
            new = dict(state)
            new[stmt.target.id] = self.ann.meet(
                stmt.target.id, _eval(stmt.value, state, self.ann))
        elif (isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)):
            name = stmt.target.id
            cur = self.ann.meet(name, state.get(name, (_INF, _INF)))
            new = dict(state)
            new[name] = self.ann.meet(name, _eval_binop(
                stmt.op, cur, _eval(stmt.value, state, self.ann)))
        return new, state

    def refine(self, edge, state: dict) -> dict:
        """``if n > c: raise`` proves ``n <= c`` on the false edge."""
        test = edge.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.left, ast.Name)
                and isinstance(test.comparators[0], ast.Constant)
                and isinstance(test.comparators[0].value, (int, float))
                and not isinstance(test.comparators[0].value, bool)):
            return state
        op = test.ops[0]
        bound = abs(float(test.comparators[0].value))
        upper_on = ("false" if isinstance(op, (ast.Gt, ast.GtE))
                    else "true" if isinstance(op, (ast.Lt, ast.LtE))
                    else None)
        if upper_on != edge.kind:
            return state
        name = test.left.id
        cur = state.get(name, (_INF, _INF))
        if cur[0] <= bound:
            return state
        new = dict(state)
        new[name] = (bound, cur[1])
        return new


# ---------------------------------------------------------------------------
# Post-fixpoint checks
# ---------------------------------------------------------------------------

def _cast_sites(node):
    """(line, expr-being-cast) for each int32 cast at this CFG node."""
    for sub in walk_scope(_roots(node)):
        if not isinstance(sub, ast.Call):
            continue
        if (isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "astype"
                and any(_is_int32(a) for a in sub.args)):
            yield sub.lineno, sub.func.value
        elif dotted(sub.func).split(".")[-1] == "int32" and sub.args:
            if dotted(sub.func) != "int32":     # np.int32(x), not a var
                yield sub.lineno, sub.args[0]


def _check_function(sf: SourceFile, fn, ann: _Annotation) -> list:
    cfg = build_cfg(fn)
    sol = solve(cfg, _BoundsLattice(fn, ann))
    int32_names = _int32_arrays(fn)
    findings: list[Finding] = []

    def emit(line: int, what: str, bound: float) -> None:
        findings.append(Finding(
            path=sf.posix, line=line, rule=RULE,
            message=f"{what} may overflow: value bound {_fmt(bound)} "
                    f"exceeds {INT32_MAX} (int32 max) under declared "
                    f"bounds ({ann.raw}); widen the dtype, tighten the "
                    "bounds, or gate the input",
            flow=((sf.posix, ann.line, f"declared bounds: {ann.raw}"),
                  (sf.posix, line,
                   f"value bound here is {_fmt(bound)}"))))

    for nid in sorted(cfg.nodes):
        state = sol.inputs.get(nid)
        if state is None:
            continue                             # unreachable
        node = cfg.nodes[nid]
        for line, castee in _cast_sites(node):
            bound = _eval(castee, state, ann)[0]
            if bound > INT32_MAX:
                emit(line, "int32 cast", bound)
        stmt = node.stmt
        if (isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in int32_names
                and isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mult))):
            name = stmt.target.id
            cur = ann.meet(name, state.get(name, (_INF, _INF)))
            bound = _eval_binop(stmt.op, cur,
                                _eval(stmt.value, state, ann))[0]
            if bound > INT32_MAX:
                emit(stmt.lineno,
                     f"int32 accumulation into '{name}'", bound)
    return findings


def analyze(sf: SourceFile) -> list[Finding]:
    """All dtype-bounds findings of one module (annotated fns only)."""
    anns, findings = _parse_annotations(sf)
    if not anns:
        return findings
    functions = [n for n in ast.walk(sf.tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    per_fn: dict[int, tuple] = {}
    for ann in anns:
        best = None
        for fn in functions:
            if fn.lineno - 2 <= ann.line <= fn.end_lineno:
                span = fn.end_lineno - fn.lineno
                if best is None or span < best[1]:
                    best = (fn, span)
        if best is None:
            findings.append(Finding(
                path=sf.posix, line=ann.line, rule=RULE,
                message=f"bounds annotation '({ann.raw})' is not "
                        "attached to any function; place it inside the "
                        "function it constrains (or just above the "
                        "def)"))
            continue
        fn = best[0]
        if id(fn) in per_fn:
            per_fn[id(fn)][1].merge(ann)
        else:
            per_fn[id(fn)] = (fn, ann)
    for fn, ann in sorted(per_fn.values(), key=lambda t: t[0].lineno):
        findings.extend(_check_function(sf, fn, ann))
    findings.sort(key=lambda f: (f.line, f.message))
    return findings
