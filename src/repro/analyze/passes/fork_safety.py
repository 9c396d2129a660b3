"""Fork-safety pass: worker-reachable code must not touch shared state.

``serve.pool``, ``lab.executor`` and the partitioner hand work to
forked child processes through :mod:`repro.core.workers`.  After the
fork the child owns a copy-on-write snapshot of the parent: mutating
module-level state is at best silently lost, acquiring an inherited
lock can deadlock on a holder that no longer runs, and an inherited
asyncio event loop is attached to file descriptors the child must not
drive.

The pass discovers worker entrypoints generically (every
``Process(target=X)`` keyword and the first argument of every
``core.workers`` spawner in the analyzed set), walks the call graph
from them, and flags

* writes to module-level bindings (``global`` + assign, subscript or
  attribute stores, and mutating method calls such as ``.clear()`` /
  ``sys.path.insert``) recorded as facts by the extractor, and
* calls to ``asyncio.get_event_loop`` / ``get_running_loop`` (an
  inherited loop).

Findings anchor at the mutation site with a witness chain, so one
pragma at a deliberately process-local counter (e.g.
``repro.instrument``) silences every entrypoint that reaches it.
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import CallGraph
from ..dataflow import Reachability
from ..engine import Finding
from ..index import ModuleIndex

__all__ = ["run"]

_LOOP_SINKS = {"asyncio.get_event_loop", "asyncio.get_running_loop"}


def run(index: ModuleIndex, graph: CallGraph) -> Iterable[Finding]:
    roots = {node: f"worker entrypoint '{label}'"
             for node, label in graph.worker_entrypoints()}
    if not roots:
        return
    reach = Reachability(graph.edges, roots)
    seen: set[tuple] = set()
    for node in reach:
        owner = graph.owner[node]
        qual = node.partition(":")[2]
        for line, name in owner.global_writes.get(qual, ()):
            key = (owner.path, int(line), name)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                path=owner.path, line=int(line), rule="fork-safety",
                message=f"mutation of module-level state '{name}' is "
                        f"reachable from {reach.label(node)}; forked "
                        "workers must not touch state shared with the "
                        f"parent (chain: {reach.chain_text(node)})")
        for line, resolved, written in graph.external.get(node, ()):
            if resolved not in _LOOP_SINKS:
                continue
            key = (owner.path, line, resolved)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                path=owner.path, line=line, rule="fork-safety",
                message=f"call to '{written}' inherits the parent's "
                        f"event loop in code reachable from "
                        f"{reach.label(node)}; create a fresh loop in "
                        f"the child (chain: {reach.chain_text(node)})")
