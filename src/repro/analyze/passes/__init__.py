"""Whole-program passes — the check stage of the analysis pipeline.

:func:`run_all` is the single entry point the engine calls: it replays
the file-local and CFG/path-sensitive findings embedded in each
summary (the latter computed at extract time over per-function CFGs
by :mod:`.obligations` — resource-safety and task-lifecycle — and
:mod:`.dtype_bounds`), runs the structural
repo rules (:mod:`.structural`), builds one
:class:`~repro.analyze.callgraph.CallGraph`, and hands it to the four
interprocedural dataflow passes (:mod:`.determinism`,
:mod:`.fork_safety`, :mod:`.rng_provenance`, :mod:`.async_blocking`).

``RULE_META`` is the registry of every rule/pass id with its severity
and one-line invariant; the CLI's ``--fail-on`` gate and
``docs/ANALYZE.md`` both key off it.
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import CallGraph
from ..engine import Finding
from ..index import ModuleIndex
from . import (async_blocking, determinism, fork_safety, rng_provenance,
               structural)

__all__ = ["RULE_META", "run_all"]

#: rule id -> (severity, one-line invariant).
RULE_META: dict[str, tuple[str, str]] = {
    "seed-discipline": (
        "error",
        "library code never draws from implicit global RNG state"),
    "silent-except": (
        "error",
        "broad exception handlers must re-raise, log, or carry a pragma"),
    "float-cost-eq": (
        "error",
        "cost/gain values are compared via repro.core.tolerance, not ==/!="),
    "serve-timeout": (
        "error",
        "every await in the serving layer is bounded by with_deadline"),
    "kernel-oracle": (
        "error",
        "every public CSR kernel has a _reference_* oracle twin and tests"),
    "runner-signature": (
        "error",
        "registered runners are declared run(*, seed, **params) with a "
        "resolvable check"),
    "error-hierarchy": (
        "error",
        "every *Error class derives from repro.errors.ReproError"),
    "determinism": (
        "error",
        "registered runners and serve ops never transitively reach "
        "wall-clock, env, network, or global-RNG state"),
    "fork-safety": (
        "error",
        "code reachable from forked worker entrypoints never mutates "
        "module-level state or inherited locks/loops"),
    "rng-provenance": (
        "error",
        "Generators flow from the seed parameter by argument, never via "
        "a module global or unseeded constructor"),
    "resource-safety": (
        "error",
        "acquired resources (shm, pools, files, sockets) are released "
        "on every CFG path, exception edges included"),
    "async-blocking": (
        "error",
        "no blocking call or sync lock acquire is reachable from a "
        "serve/sim/mesh coroutine except through to_thread/executor "
        "offloads"),
    "dtype-bounds": (
        "error",
        "int32 casts and accumulations are proven overflow-free under "
        "declared `# repro: bounds(...)` scale bounds"),
    "task-lifecycle": (
        "error",
        "every create_task/ensure_future result is supervised, awaited, "
        "or cancelled on every path"),
    "pragma-missing-reason": (
        "warning",
        "every allow(...) pragma carries a written reason"),
    "unused-pragma": (
        "warning",
        "a pragma that suppresses nothing is removed, not left to rot"),
}


def run_all(index: ModuleIndex) -> Iterable[Finding]:
    """Every unfiltered finding for the linked program, in one stream."""
    for summary in index.summaries:
        yield from summary.findings()
    yield from structural.kernel_oracle(index)
    yield from structural.runner_signature(index)
    yield from structural.error_hierarchy(index)
    graph = CallGraph(index)
    yield from determinism.run(index, graph)
    yield from fork_safety.run(index, graph)
    yield from rng_provenance.run(index, graph)
    yield from async_blocking.run(index, graph)
