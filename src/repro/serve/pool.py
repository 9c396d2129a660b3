"""Micro-batched process dispatch for the serving layer.

One dispatch = one worker process running a *batch* of jobs
sequentially (earliest deadline first) and writing one result file per
job, atomically, straight into the content-addressed cache — the same
filesystem worker protocol as :mod:`repro.lab.executor`, whose
``write_result`` / ``read_result`` this module reuses, started and
stopped through :mod:`repro.core.workers`.  The consequences are
load-bearing:

* **amortised overhead** — process start + poll rounding costs are paid
  once per batch, not once per job, which is where the batched
  throughput win on small jobs comes from;
* **streaming results** — the parent resolves each member as its file
  appears, so a small job coalesced with slower siblings does not wait
  for the whole batch;
* **crash recovery for free** — results written before a server kill
  are ordinary cache entries; an identical resubmission after restart
  is a cache hit, not a recompute;
* **deadline enforcement by kill** — a member past its deadline gets
  the whole worker killed (cooperative cancellation has no place to
  hook into a busy solver loop); already-written siblings are
  harvested, unexpired unfinished siblings are reported ``lost`` so the
  manager can requeue them.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..core.hypergraph import Hypergraph
from ..core.workers import start, stop
from ..lab.executor import read_result, write_result

__all__ = ["BatchMember", "MemberOutcome", "run_batch"]

# How often the parent looks for the worker's per-member result files.
_POLL_S = 0.004


@dataclass
class BatchMember:
    """One job inside a dispatch."""

    key: str
    seed: int
    params: Mapping
    outfile: Path
    errfile: Path
    deadline_mono: float | None     # time.monotonic() deadline, None = no cap
    #: Graph parsed in the server process (a streamed upload or a large
    #: inline spec); the forked worker inherits it and solves it instead
    #: of parsing ``params["graph"]``.  Transport state: the job's cache
    #: key was computed from ``params`` at admission.
    graph: Hypergraph | None = None


@dataclass
class MemberOutcome:
    """What happened to one member, as seen by the parent."""

    status: str                     # "ok" | "error" | "timeout" | "lost"
    payload: dict | None = None     # worker-written result file content
    error: str | None = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _batch_main(members: Sequence[BatchMember], debug_slow_s: float) -> None:
    """Run every job in the batch; one atomic result file per job.

    A job that raises writes its traceback to the job's error file and
    the loop continues — per-job failure containment *inside* a batch.
    The solver import happens here (worker side) so a fork-started
    child reuses the parent's warm modules.
    """
    from .runner import solve_graph

    for m in members:
        if debug_slow_s > 0:
            # mesh chaos harness only: manufactures a slow shard so
            # hedging has something to beat; plumbed through config,
            # never read from the environment (determinism pass)
            time.sleep(debug_slow_s)
        write_result(m.outfile, m.errfile,
                     lambda: solve_graph(m.graph, seed=m.seed,
                                         params=m.params))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

async def run_batch(
    members: Sequence[BatchMember],
    *,
    on_outcome: Callable[[BatchMember, MemberOutcome], None],
    debug_slow_s: float = 0.0,
) -> None:
    """Dispatch ``members`` to one worker process and stream outcomes.

    ``on_outcome`` fires exactly once per member, in completion order.
    Cancellation (server shutdown) kills the worker and reports every
    unresolved member as ``lost``.
    """
    if not members:
        return
    ordered = sorted(
        members,
        key=lambda m: (m.deadline_mono is None,
                       m.deadline_mono if m.deadline_mono is not None
                       else 0.0))
    # the forked child inherits the members, their params and graphs;
    # all of them may already be cached, so the first sweep can stop the
    # child before it runs anything: start() forks it with the shard's
    # signals blocked until its reset
    proc = start(_batch_main, ordered, float(debug_slow_s))
    pending = list(ordered)

    def sweep() -> None:
        nonlocal pending
        still: list[BatchMember] = []
        for m in pending:
            payload, error = read_result(m.outfile, m.errfile)
            if payload is not None:
                on_outcome(m, MemberOutcome(status="ok", payload=payload))
            elif error is not None:
                on_outcome(m, MemberOutcome(status="error", error=error))
            else:
                still.append(m)
        pending = still

    def fail_rest(expired: set[str]) -> None:
        sweep()                      # last chance: files written pre-kill
        for m in pending:
            if m.key in expired:
                on_outcome(m, MemberOutcome(
                    status="timeout", error="deadline exceeded in worker"))
            else:
                on_outcome(m, MemberOutcome(
                    status="lost",
                    error="dispatch aborted before this job ran"))
        pending.clear()

    try:
        while pending:
            sweep()
            if not pending:
                break
            now = time.monotonic()
            expired = {m.key for m in pending
                       if m.deadline_mono is not None
                       and now >= m.deadline_mono}
            if expired:
                stop(proc)
                fail_rest(expired)
                return
            if not proc.is_alive():
                proc.join()
                exitcode = proc.exitcode
                stop(proc)
                sweep()
                for m in pending:
                    on_outcome(m, MemberOutcome(
                        status="error",
                        error=f"worker exited with code {exitcode} "
                              "and no result"))
                pending.clear()
                return
            await asyncio.sleep(_POLL_S)
        # all members resolved; reap the worker (it exits right after
        # its last write, so the grace path in stop is rarely hit)
        stop(proc)
    except asyncio.CancelledError:
        stop(proc)
        fail_rest(set())
        raise
    except BaseException:
        stop(proc)
        raise
