"""File-local rules for ``repro analyze``.

Each rule guards an invariant the reproduction depends on:

========================  ====================================================
rule id                   invariant
========================  ====================================================
``seed-discipline``       library code never draws from implicit global RNG
                          state; randomness flows through an explicit
                          ``np.random.Generator`` (or seed) parameter, so
                          every experiment is replayable.
``silent-except``         no ``except Exception:``/bare ``except:`` swallows
                          an error without re-raising, logging, or a written
                          pragma justifying the suppression.
``float-cost-eq``         cost/gain/load values are never compared with raw
                          ``==``/``!=``; comparisons go through
                          :mod:`repro.core.tolerance`.
``serve-timeout``         every ``await`` in the serving layer goes through
                          the ``with_deadline`` wrapper or is an allowlisted
                          pure-I/O primitive — no handler can block forever
                          on a solver future.
========================  ====================================================

The former ``shm-lifecycle`` rule is superseded by the path-sensitive
``resource-safety`` rule (:mod:`repro.analyze.passes.obligations`),
which tracks shm handles — plus pools, files, and sockets — through a
live-sites lattice over the function's CFG instead of pattern
matching for a ``finally``.

Since analyze v2 these rules are *fact consumers*: they read the
collections gathered by the single AST walk in
:class:`repro.analyze.index.Extractor` (resolved call records, except
handlers, comparisons, awaits) instead of re-walking the tree
themselves — one walk serves every rule.  Their findings are embedded
in the module summary, so the incremental engine replays them from
cache without re-parsing.

The *structural* repo-wide rules (``kernel-oracle``,
``runner-signature``, ``error-hierarchy``) and the interprocedural
passes (``determinism``, ``fork-safety``, ``rng-provenance``) live in
:mod:`repro.analyze.passes`.

Scoping: ``seed-discipline`` and ``float-cost-eq`` apply to library
code (files under ``src/``) — tests may intentionally seed globals or
compare exact integer-valued costs.  ``silent-except`` applies
everywhere.  ``serve-timeout`` applies to files under
``src/repro/serve/`` and ``src/repro/mesh/`` (the router is held to
the same no-unbounded-await bar as the shards).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from .engine import Finding, SourceFile
from .index import dotted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import Extractor

__all__ = ["run_local_rules"]


# ---------------------------------------------------------------------------
# seed-discipline (R1)
# ---------------------------------------------------------------------------

#: Constructors for explicit, caller-seeded randomness are allowed.
_ALLOWED_NP_RANDOM = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}


def seed_discipline(sf: SourceFile, ex: "Extractor") -> Iterable[Finding]:
    if not sf.in_src:
        return
    for _qual, line, resolved, written in ex.call_records:
        head, _, attr = resolved.rpartition(".")
        if head in ("numpy.random", "np.random"):
            if attr not in _ALLOWED_NP_RANDOM:
                yield Finding(
                    path=sf.posix, line=line, rule="seed-discipline",
                    message=f"call to global-state RNG '{written}'; pass an "
                            "explicit np.random.Generator (default_rng) "
                            "instead")
        elif head == "random":
            yield Finding(
                path=sf.posix, line=line, rule="seed-discipline",
                message=f"call to stdlib global RNG '{written}'; use an "
                        "explicit np.random.Generator parameter")


# ---------------------------------------------------------------------------
# silent-except (R2)
# ---------------------------------------------------------------------------

_LOGGING_ROOTS = {"logging", "logger", "log", "warnings", "traceback"}
_LOGGING_ATTRS = {"warn", "warning", "error", "exception", "debug",
                  "info", "critical", "print_exc", "format_exc",
                  "log"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    names = [n for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return any(isinstance(n, ast.Name)
               and n.id in ("Exception", "BaseException") for n in names)


def _handles(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            root, _, attr = name.partition(".")
            if root in _LOGGING_ROOTS:
                return True
            if name.rpartition(".")[2] in _LOGGING_ATTRS:
                return True
    return False


def silent_except(sf: SourceFile, ex: "Extractor") -> Iterable[Finding]:
    for handler in ex.handlers:
        if _is_broad(handler) and not _handles(handler):
            caught = (dotted(handler.type) if handler.type is not None
                      else "all")
            yield Finding(
                path=sf.posix, line=handler.lineno, rule="silent-except",
                message=f"broad handler ({caught}) neither re-raises nor "
                        "logs; narrow the exception type or add an "
                        "allow(silent-except) pragma with a reason")


# ---------------------------------------------------------------------------
# float-cost-eq (R5)
# ---------------------------------------------------------------------------

_COSTY = ("cost", "gain", "makespan", "slack")


def _mentions_cost(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and any(c in name.lower() for c in _COSTY):
            return True
    return False


def float_cost_eq(sf: SourceFile, ex: "Extractor") -> Iterable[Finding]:
    if not sf.in_src:
        return
    for _ctx, node in ex.compares:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_mentions_cost(o) for o in operands):
            yield Finding(
                path=sf.posix, line=node.lineno, rule="float-cost-eq",
                message="raw ==/!= on a cost/gain value; use "
                        "repro.core.tolerance (close/leq/geq/lt/gt)")


# ---------------------------------------------------------------------------
# serve-timeout (R7)
# ---------------------------------------------------------------------------

#: Pure-I/O awaits and lifecycle transitions that cannot block on solver
#: work.  Everything else — solver futures, ``wait_for``, ``gather``,
#: ``to_thread`` — must flow through ``with_deadline`` so a request can
#: never outlive its budget.
_SERVE_AWAIT_OK = {
    "sleep", "drain", "wait_closed", "read", "readline", "readexactly",
    "readuntil", "serve_forever", "start_serving", "get", "put", "join",
    "acquire", "accept", "start", "stop",
    # repro.serve.http framing helpers: every await inside them is
    # already with_deadline-bounded, so awaiting them is as safe as
    # awaiting with_deadline itself
    "read_head", "read_body", "read_response", "write_response",
    # repro.serve.stream ingest and frame head reader: internally
    # deadline-bounded per read
    "ingest_stream", "read_stream_head",
}


def serve_timeout(sf: SourceFile, ex: "Extractor") -> Iterable[Finding]:
    parts = sf.path.parts
    if not ("src" in parts and ("serve" in parts or "mesh" in parts)):
        return
    # Awaiting an async def *from this file* is transitively safe: its
    # own awaits are subject to this very rule.
    for line, callee, written, is_call in ex.awaits:
        if is_call:
            if (callee == "with_deadline" or callee in _SERVE_AWAIT_OK
                    or callee in ex.local_async):
                continue
            what = f"await of '{written or callee or '?'}()'"
        else:
            what = "bare await of a non-call expression"
        yield Finding(
            path=sf.posix, line=line, rule="serve-timeout",
            message=f"{what} in the serving layer; route it through "
                    "with_deadline(...) so the request budget applies, "
                    "or add an allow(serve-timeout) pragma with a reason")


_LOCAL_RULES = (seed_discipline, silent_except, float_cost_eq,
                serve_timeout)


def run_local_rules(sf: SourceFile, ex: "Extractor") -> list[Finding]:
    """All file-local findings for one module, in deterministic order."""
    out: list[Finding] = []
    for rule in _LOCAL_RULES:
        out.extend(rule(sf, ex))
    return out
