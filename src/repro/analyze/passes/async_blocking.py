"""async-blocking — coroutines must not reach blocking calls.

The serve subsystem runs a single asyncio event loop; the sim engine
and the mesh router expose async entrypoints of their own.  One
synchronous blocking call anywhere in the transitive call tree of a
coroutine — ``time.sleep``, a ``subprocess`` wait, sync file I/O, a
blocking ``queue.Queue`` operation, a ``threading`` lock acquire
(``with lock:`` included; see :data:`~repro.analyze.index.SYNC_LOCKS`),
or an inline CPU-heavy kernel — stalls *every* in-flight request,
which is precisely the failure mode the serve deadline machinery
cannot see (the loop itself is wedged).

Roots are all ``async def`` functions in ``src`` modules under
``serve``/``sim``/``mesh`` path components.  The pass composes with the
project call graph (:class:`~repro.analyze.callgraph.CallGraph`):
reachability is interprocedural, so a *sync* helper three calls deep
still gets flagged — at the blocking call site, with the coroutine
and witness chain in the message and an interprocedural ``flow``.

``asyncio.to_thread(fn, ...)`` and ``loop.run_in_executor(None, fn)``
offloads are exempt by construction: ``fn`` is passed as an argument,
not called, so no call edge exists — exactly the remediation the
finding suggests.
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import CallGraph, pretty_node
from ..dataflow import Reachability
from ..engine import Finding
from ..index import SYNC_LOCKS, ModuleIndex

__all__ = ["RULE", "classify_blocking", "run"]

RULE = "async-blocking"

_EXACT = {
    "time.sleep": "sleep",
    "builtins.open": "synchronous file I/O",
    "queue.Queue.get": "blocking queue get",
    "queue.Queue.put": "blocking queue put",
    **{f"{ctor}.acquire": "sync lock acquire" for ctor in SYNC_LOCKS},
}

_SUBPROCESS_PREFIX = "subprocess."
_KERNEL_PREFIX = "repro.core.kernels."


def classify_blocking(resolved: str) -> str | None:
    """Blocking category of a resolved call target, or None."""
    if resolved in _EXACT:
        return _EXACT[resolved]
    if resolved.startswith(_SUBPROCESS_PREFIX):
        return "subprocess"
    if resolved.startswith(_KERNEL_PREFIX):
        return "CPU-heavy kernel"
    return None


def _coroutine_roots(index: ModuleIndex) -> dict[str, str]:
    """node -> label for every async def under src serve/sim/mesh paths."""
    roots: dict[str, str] = {}
    for s in index.summaries:
        if not s.in_src:
            continue
        parts = s.path.split("/")
        if "serve" not in parts and "sim" not in parts \
                and "mesh" not in parts:
            continue
        for qual, meta in s.functions.items():
            if meta.get("is_async"):
                node = f"{s.module}:{qual}"
                roots[node] = f"coroutine '{pretty_node(node)}'"
    return roots


def _flow(graph: CallGraph, reach: Reachability, node: str,
          line: int, written: str) -> tuple:
    steps = []
    for hop in reach.chain(node):
        owner = graph.owner.get(hop)
        if owner is None:
            continue
        qual = hop.partition(":")[2]
        meta = owner.functions.get(qual)
        hop_line = int(meta["line"]) if meta else 1
        steps.append((owner.path, hop_line, f"enters {pretty_node(hop)}"))
    owner = graph.owner[node]
    steps.append((owner.path, line, f"blocking call to '{written}'"))
    return tuple(steps)


def run(index: ModuleIndex, graph: CallGraph) -> Iterable[Finding]:
    roots = _coroutine_roots(index)
    if not roots:
        return
    reach = Reachability(graph.edges, roots)
    seen: set[tuple] = set()
    for node in reach:
        owner = graph.owner.get(node)
        if owner is None:
            continue
        qual = node.partition(":")[2]
        for record in owner.calls.get(qual, ()):
            line, resolved, written = int(record[0]), record[1], record[2]
            category = classify_blocking(resolved)
            if category is None:
                continue
            if (resolved.startswith(_KERNEL_PREFIX)
                    and owner.module.startswith("repro.core")):
                # kernel-internal calls are the kernel, not a coroutine
                # holding the loop; the *entry* into core is the event.
                continue
            key = (owner.path, line, resolved)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                path=owner.path, line=line, rule=RULE,
                message=f"blocking call to '{written}' ({category}) is "
                        f"reachable from {reach.label(node)} and would "
                        "stall the event loop (chain: "
                        f"{reach.chain_text(node)}); offload it via "
                        "asyncio.to_thread / run_in_executor or use the "
                        "async equivalent",
                flow=_flow(graph, reach, node, line, written))
