"""fork-hygiene — fork workers reset signal state and inherit nothing live.

The worst chaos-run bug of the mesh era: a forked sub-round worker
inherited the parent's signal handlers, and the first stray ``SIGCHLD``
wrote into the *parent's* wakeup fd through the still-open inherited
descriptor — poisoning the parent event loop from a child process.
The fix is mechanical (``core.workers.reset_inherited_signals`` first
thing in every worker) and now lives in one place, the bootstrap of
:func:`repro.core.workers.start`; this pass keeps it there:

1. **reset-before-IPC** — every ``Process(target=...)`` entrypoint in
   the call graph must call ``reset_inherited_signals`` *before* any
   pipe/queue touch, on every path.  The extractor already solved the
   per-function must-dominate analysis over the CFG
   (:mod:`repro.analyze.concurrency`, ``ipc_unguarded``); here those
   latent facts are consulted only for functions that actually are
   fork entrypoints, so a module may contain ordinary helpers using
   pipes freely.  Targets of ``core.workers`` spawners are exempt:
   their ``Process`` entrypoint is the primitive's resetting bootstrap.
2. **no live inheritance** — a ``Process(...)`` or spawner call whose
   arguments carry a known lock or executor hands the child a copy of
   live synchronisation state: a ``threading.Lock`` held at fork time
   stays locked *forever* in the child, and an executor's worker
   threads simply do not exist there.  Loops and module-global mutation are
   ``fork-safety``'s business already and are not re-flagged here.

Both checks consume extract-time facts only, so they replay byte-
identically from the incremental cache.
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import CallGraph
from ..engine import Finding
from ..index import ModuleIndex

__all__ = ["RULE", "run"]

RULE = "fork-hygiene"


def run(index: ModuleIndex, graph: CallGraph) -> Iterable[Finding]:
    # -- 1: worker entrypoints must reset signals before IPC ------------
    for node, label in sorted(graph.worker_entrypoints(spawned=False)):
        owner = graph.owner.get(node)
        if owner is None or not owner.in_src or not owner.concurrency:
            continue
        qual = node.partition(":")[2]
        touches = owner.concurrency.get("ipc_unguarded", {}).get(qual)
        if not touches:
            continue
        resets = owner.concurrency.get("resets", {}).get(qual, [])
        meta = owner.functions.get(qual)
        def_line = int(meta["line"]) if meta else 1
        if resets:
            why = (f"on some path before the reset at line "
                   f"{int(resets[0])}")
        else:
            why = "and never calls reset_inherited_signals at all"
        for line, api in touches:
            yield Finding(
                path=owner.path, line=int(line), rule=RULE,
                message=f"fork worker entrypoint '{label}' touches "
                        f"IPC ('{api}') {why}: inherited signal "
                        "handlers can fire during the touch and write "
                        "into the parent's wakeup fd; call "
                        "core.workers.reset_inherited_signals first "
                        "on every path",
                flow=(
                    (owner.path, def_line,
                     f"fork worker entrypoint '{label}' starts here"),
                    (owner.path, int(line),
                     f"IPC touch '{api}' with inherited signal state"),
                ))

    # -- 2: spawn arguments must not carry live locks/executors --------
    for s in index.summaries:
        if not s.in_src or not s.concurrency:
            continue
        lock_keys = {key for _, key, _ in s.concurrency.get("locks", ())}
        exec_keys = {key for _, key in s.concurrency.get("executors", ())}
        for qual, line, argroots in s.concurrency.get("spawns", ()):
            cls = qual.partition(".")[0] if "." in qual else ""
            for root in argroots:
                if root.startswith("self."):
                    key = f"{cls}.{root.split('.')[1]}" if cls else ""
                else:
                    key = root.split(".")[0]
                if key in lock_keys:
                    kind = "lock"
                elif key in exec_keys:
                    kind = "executor"
                else:
                    continue
                yield Finding(
                    path=s.path, line=int(line), rule=RULE,
                    message=f"a process spawn in {qual} passes live "
                            f"{kind} '{s.module}.{key}' (as '{root}') "
                            "across the fork boundary: the child "
                            f"inherits a copy of the {kind}'s state "
                            "(a lock held at fork time never unlocks; "
                            "an executor's threads do not exist in "
                            "the child); pass plain data instead",
                    flow=(
                        (s.path, int(line),
                         f"'{root}' crosses the fork boundary here"),
                    ))
