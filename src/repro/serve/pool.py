"""Micro-batched process dispatch for the serving layer.

One dispatch = one worker process running a *batch* of jobs
sequentially (earliest deadline first) and writing one result file per
job, atomically, straight into the content-addressed cache — the same
filesystem worker protocol as :mod:`repro.lab.executor`, whose
``mp_context`` / ``terminate_process`` / ``atomic_write_json``
primitives this module reuses.  The consequences are load-bearing:

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
import os
import signal
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .. import instrument
from ..errors import ReproError, SharedMemoryError
from ..lab.cache import atomic_write_json
from ..lab.executor import (INHERITED_SIGNALS, mp_context, reap_process,
                            reset_inherited_signals, terminate_process)

__all__ = ["BatchMember", "MemberOutcome", "run_batch"]

_POLL_S = 0.004

# Inline graph specs at or above this size are hoisted into shared
# memory before dispatch (see _hoist_graphs); below it the pickle is
# cheaper than a segment round-trip.
_SHM_SPEC_MIN_BYTES = 1 << 16


@dataclass
class BatchMember:
    """One job inside a dispatch."""

    key: str
    seed: int
    params: Mapping
    outfile: Path
    errfile: Path
    deadline_mono: float | None     # time.monotonic() deadline, None = no cap
    #: Pre-resident shared segment (streamed graph): the manager pins it
    #: in the registry for the job's lifetime, so dispatch just rewrites
    #: the shipped graph spec to this descriptor — no hoisting needed.
    shm_desc: dict | None = None


@dataclass
class MemberOutcome:
    """What happened to one member, as seen by the parent."""

    status: str                     # "ok" | "error" | "timeout" | "lost"
    payload: dict | None = None     # worker-written result file content
    error: str | None = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _batch_main(payload: dict) -> None:
    """Run every job in the batch; one atomic result file per job.

    A job that raises writes its traceback to the job's error file and
    the loop continues — per-job failure containment *inside* a batch.
    The solver import happens here (worker side) so a fork-started
    child reuses the parent's warm modules — after the signal reset,
    which must come first (see ``run_batch``).
    """
    reset_inherited_signals()
    from .runner import solve

    debug_slow_s = float(payload.get("debug_slow_s", 0.0))
    for job in payload["jobs"]:
        out = Path(job["outfile"])
        err = Path(job["errfile"])
        try:
            if debug_slow_s > 0:
                # mesh chaos harness only: manufactures a slow shard so
                # hedging has something to beat; plumbed through config,
                # never read from the environment (determinism pass)
                time.sleep(debug_slow_s)
            instrument.reset()
            t0 = time.perf_counter()
            result = solve(seed=job["seed"], **job["params"])
            duration = time.perf_counter() - t0
            try:
                import resource
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            except Exception:  # analyze: allow(silent-except) — best-effort metric: resource is POSIX-only and a metrics failure must never fail a finished job
                rss_kb = 0
            atomic_write_json(out, {
                "values": result,
                "duration_s": round(duration, 6),
                "peak_rss_kb": int(rss_kb),
                "counters": instrument.snapshot(),
            })
        except BaseException:
            try:
                atomic_write_json(err, {"error": traceback.format_exc()})
            except BaseException:  # analyze: allow(silent-except) — the error channel itself failed (disk full / kill); exiting nonzero is the only signal left
                os._exit(1)
    os._exit(0)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _spec_payload_bytes(spec: Mapping) -> int:
    """Rough transport size of an inline graph spec (0 = not inline)."""
    if "hgr" in spec:
        return len(spec["hgr"])
    if "csr" in spec:
        return 8 * len(spec["csr"]["pins"])
    if "edges" in spec:
        return 8 * sum(len(e) for e in spec["edges"])
    return 0                            # generator / shm: already tiny


async def _hoist_graphs(ordered: Sequence[BatchMember],
                        registry=None) -> tuple[list, list, list]:
    """Move large inline graph specs into shared memory, once per graph.

    Returns ``(params_per_member, owned_handles, registry_refs)``.
    Every member whose spec was hoisted gets its ``graph`` rewritten to
    ``{"shm": descriptor}`` — ~100 bytes across the pipe instead of a
    pickled megabyte-scale spec, and members sharing a graph (the
    common case in a micro-batch) share one segment and one parse.  Job
    cache keys are computed from the *original* params at admission, so
    the rewrite is transport-only.  A spec that fails to build here is
    left inline so the worker raises the proper per-job error; a full
    ``/dev/shm`` also falls back to inline.

    With a :class:`~repro.serve.stream.SegmentRegistry` the segment is
    adopted there under its content address (``"spec:<sha256>"``) and
    pinned for this dispatch — back-to-back batches over the same graph
    then reuse one segment and one parse, and the registry's idle LRU
    (not this dispatch) decides when it dies.  Without a registry the
    caller owns the returned handles and must close+unlink them once
    the worker is done.  Members with a pre-resident ``shm_desc``
    (streamed graphs, pinned by the manager) are rewritten directly and
    never hoisted here.
    """
    import hashlib
    import json

    from ..core.shm import SharedCSR
    from .protocol import build_graph

    handles: list = []
    refs: list = []
    by_spec: dict[str, dict | None] = {}
    params_out: list[Mapping] = []
    for m in ordered:
        params = m.params
        if m.shm_desc is not None:
            params = dict(params)
            params["graph"] = {"shm": m.shm_desc}
            params_out.append(params)
            continue
        spec = params.get("graph")
        if (isinstance(spec, Mapping)
                and _spec_payload_bytes(spec) >= _SHM_SPEC_MIN_BYTES):
            key = json.dumps(spec, sort_keys=True)
            if key not in by_spec:
                ref = ("spec:" + hashlib.sha256(key.encode()).hexdigest()
                       if registry is not None else None)
                if ref is not None and registry.acquire(ref):
                    refs.append(ref)
                    by_spec[key] = registry.descriptor(ref)
                else:
                    try:
                        # analyze: allow(serve-timeout) — bounded
                        # transitively: run_batch (the only caller) is
                        # itself awaited under with_deadline(batch
                        # budget) by the job manager, and build_graph is
                        # CPU-bound parsing, not unbounded I/O.
                        graph = await asyncio.to_thread(build_graph,
                                                        params)
                        shared = SharedCSR.from_hypergraph(graph)
                    except (ReproError, SharedMemoryError, MemoryError):
                        by_spec[key] = None  # worker handles it inline
                    else:
                        # ownership first (registry or handles list owns
                        # the segment from here), descriptor after — no
                        # statement sits between acquire and hand-off
                        if ref is not None:
                            registry.adopt(ref, shared)
                            registry.acquire(ref)
                            refs.append(ref)
                        else:
                            handles.append(shared)
                        by_spec[key] = shared.descriptor()
            desc = by_spec[key]
            if desc is not None:
                params = dict(params)
                params["graph"] = {"shm": desc}
        params_out.append(params)
    return params_out, handles, refs


def _harvest(member: BatchMember) -> MemberOutcome | None:
    """Turn a member's on-disk files into an outcome (None = not done)."""
    import json

    if member.outfile.exists():
        try:
            payload = json.loads(member.outfile.read_text())
        except ValueError:
            payload = None              # torn read: worker mid-replace
        if payload is not None and "values" in payload:
            return MemberOutcome(status="ok", payload=payload)
    if member.errfile.exists():
        try:
            error = json.loads(member.errfile.read_text()).get("error")
        except ValueError:
            error = None
        if error is not None:
            try:
                member.errfile.unlink()
            except OSError:
                pass
            return MemberOutcome(status="error", error=error)
    return None


async def run_batch(
    members: Sequence[BatchMember],
    *,
    on_outcome: Callable[[BatchMember, MemberOutcome], None],
    poll_s: float = _POLL_S,
    registry=None,
    debug_slow_s: float = 0.0,
) -> None:
    """Dispatch ``members`` to one worker process and stream outcomes.

    ``on_outcome`` fires exactly once per member, in completion order.
    Cancellation (server shutdown) kills the worker and reports every
    unresolved member as ``lost``.  ``registry`` (a
    :class:`~repro.serve.stream.SegmentRegistry`) makes hoisted graph
    segments outlive this dispatch for reuse by the next one.
    """
    if not members:
        return
    ordered = sorted(
        members,
        key=lambda m: (m.deadline_mono is None,
                       m.deadline_mono if m.deadline_mono is not None
                       else 0.0))
    shipped_params, shm_handles, shm_refs = await _hoist_graphs(
        ordered, registry)
    payload = {"jobs": [{"seed": m.seed, "params": dict(p),
                         "outfile": str(m.outfile),
                         "errfile": str(m.errfile)}
                        for m, p in zip(ordered, shipped_params)],
               "debug_slow_s": float(debug_slow_s)}
    for m in ordered:
        m.outfile.parent.mkdir(parents=True, exist_ok=True)
        m.errfile.parent.mkdir(parents=True, exist_ok=True)
    ctx = mp_context()
    proc = ctx.Process(target=_batch_main, args=(payload,), daemon=True)
    # The child is born with the shard's handlers and loop wakeup fd; a
    # SIGTERM it gets before _batch_main resets them (all members may
    # already be cached, so the first sweep terminates it at once) would
    # shut the shard down.  Forking with the signals blocked holds any
    # such SIGTERM until the reset unblocks them.
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, INHERITED_SIGNALS)
    try:
        proc.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
    pending = list(ordered)

    def sweep() -> None:
        nonlocal pending
        still: list[BatchMember] = []
        for m in pending:
            outcome = _harvest(m)
            if outcome is not None:
                on_outcome(m, outcome)
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
                terminate_process(proc)
                fail_rest(expired)
                return
            if not proc.is_alive():
                proc.join()
                exitcode = proc.exitcode
                reap_process(proc)
                sweep()
                for m in pending:
                    on_outcome(m, MemberOutcome(
                        status="error",
                        error=f"worker exited with code {exitcode} "
                              "and no result"))
                pending.clear()
                return
            await asyncio.sleep(poll_s)
        # all members resolved; reap the worker (it exits right after
        # its last write, so the grace path in terminate is rarely hit)
        terminate_process(proc)
    except asyncio.CancelledError:
        terminate_process(proc)
        fail_rest(set())
        raise
    except BaseException:
        terminate_process(proc)
        raise
    finally:
        # parent owns the hoisted segments: drop registry pins (the
        # idle LRU decides when the segment actually dies) and unlink
        # registry-less handles outright, now that the worker is gone
        # (every exit path above kills or joins it first)
        for ref in shm_refs:
            registry.release(ref)
        for shared in shm_handles:
            shared.close()
            shared.unlink()
