"""Job lifecycle: admission, micro-batching, backpressure, deadlines.

The :class:`JobManager` owns the bounded admission queue and the
dispatch loop.  Design invariants:

* **bounded everything** — the queue rejects at ``queue_limit``
  (:class:`~repro.errors.QueueFullError` → HTTP 429), finished jobs are
  purged past a retention window, and latency windows are ring buffers;
  memory stays flat at any offered load.
* **micro-batching** — small jobs arriving within ``batch_window_s``
  coalesce into one worker dispatch (up to ``batch_max``), amortising
  process start and poll rounding; large jobs always dispatch solo so a
  big instance never delays a batch of small ones.
* **deadlines end-to-end** — a job's deadline covers queue wait plus
  compute.  Expired in queue → resolved ``timeout`` without dispatch;
  expired in a worker → the worker is killed and unexpired batch
  siblings are requeued (one retry) — see :mod:`repro.serve.pool`.
* **cache first** — a submit whose key is already in the shared
  ``.lab-cache/`` resolves synchronously without touching the queue.

:func:`with_deadline` is the *only* sanctioned way for serve code to
await work; the ``serve-timeout`` rule in ``repro analyze`` enforces
this (see :mod:`repro.analyze.rules`).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import shutil
import tempfile
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Mapping, TypeVar

from ..core.hypergraph import Hypergraph
from ..errors import (DeadlineExceededError, JobNotFoundError,
                      QueueFullError, ReproError, ServeProtocolError)
from ..lab.cache import ResultCache
from ..lab.journal import RunJournal
from .metrics import Metrics
from .pool import BatchMember, MemberOutcome, run_batch
from .protocol import JobRequest, build_graph
from .runner import job_key

__all__ = ["Job", "JobManager", "with_deadline"]

T = TypeVar("T")

#: Job statuses.  ``queued`` and ``running`` are live; the rest final.
FINAL_STATUSES = ("done", "error", "timeout", "cancelled")

_MAX_ATTEMPTS = 2                  # initial dispatch + one requeue
_RETAIN_JOBS = 1024                # finished jobs kept for polling
_RETAIN_S = 600.0

#: Parsed graphs kept for reuse by later jobs (streamed uploads and
#: large inline specs); a job holds its own graph until it resolves.
_RETAIN_GRAPHS = 4

#: Inline graph specs at or above this size are parsed once in the
#: server process and inherited by the batch worker; smaller ones are
#: parsed by the worker itself.
_PARENT_PARSE_MIN_BYTES = 1 << 16


async def with_deadline(awaitable: Awaitable[T],
                        seconds: float | None) -> T:
    """Await ``awaitable`` under a deadline (None = unbounded).

    The single sanctioned await-wrapper for serve code: raises
    :class:`DeadlineExceededError` instead of ``asyncio.TimeoutError``
    so callers catch one library-rooted type.
    """
    if seconds is None:
        return await awaitable  # analyze: allow(serve-timeout) — this IS the deadline wrapper; None is the explicit opt-out for lifecycle waits
    try:
        return await asyncio.wait_for(awaitable, seconds)  # analyze: allow(serve-timeout) — this IS the deadline wrapper; everything else must call it
    except asyncio.TimeoutError:
        raise DeadlineExceededError(
            f"deadline of {seconds:g}s exceeded") from None


def _spec_payload_bytes(spec: Mapping) -> int:
    """Rough transport size of an inline graph spec (0 = not inline)."""
    if "hgr" in spec:
        return len(spec["hgr"])
    if "csr" in spec:
        return 8 * len(spec["csr"]["pins"])
    if "edges" in spec:
        return 8 * sum(len(e) for e in spec["edges"])
    return 0                            # generator / stream: already tiny


def _parse_with_incidence(params: Mapping) -> Hypergraph:
    graph = build_graph(params)
    graph.incidence()               # built once here, inherited by workers
    return graph


@dataclass
class Job:
    """One submitted request and everything known about its progress."""

    id: str
    request: JobRequest
    key: str
    future: asyncio.Future
    submitted_ts: float             # wall clock, for reporting
    submitted_mono: float           # monotonic, for latency math
    deadline_mono: float | None
    status: str = "queued"
    cached: bool = False
    result: Any = None
    error: str | None = None
    counters: dict = field(default_factory=dict)
    duration_s: float = 0.0         # worker-side compute time
    latency_s: float = 0.0          # submit → resolve, queue included
    attempts: int = 0
    finished_ts: float | None = None
    #: Graph the batch worker inherits (see JobManager._graph_for);
    #: dropped when the job resolves.
    graph: Hypergraph | None = None

    @property
    def done(self) -> bool:
        return self.status in FINAL_STATUSES

    def describe(self, with_result: bool = True) -> dict:
        out = {
            "job_id": self.id,
            "op": self.request.op,
            "status": self.status,
            "cached": self.cached,
            "attempts": self.attempts,
            "submitted_ts": round(self.submitted_ts, 3),
            "duration_s": round(self.duration_s, 6),
            "latency_s": round(self.latency_s, 6),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.finished_ts is not None:
            out["finished_ts"] = round(self.finished_ts, 3)
        if with_result and self.status == "done":
            out["result"] = self.result
            out["counters"] = self.counters
        return out


class JobManager:
    """Owns the queue, the jobs table, and the dispatch loop."""

    def __init__(
        self,
        *,
        workers: int = 2,
        batch_max: int = 8,
        batch_window_s: float = 0.01,
        queue_limit: int = 128,
        default_deadline_s: float = 60.0,
        small_pins: int = 20_000,
        cache: ResultCache | None = None,
        journal: RunJournal | None = None,
        metrics: Metrics | None = None,
        debug_slow_s: float = 0.0,
    ) -> None:
        self.workers = max(1, int(workers))
        self.batch_max = max(1, int(batch_max))
        self.batch_window_s = max(0.0, float(batch_window_s))
        self.queue_limit = max(1, int(queue_limit))
        self.default_deadline_s = float(default_deadline_s)
        self.small_pins = int(small_pins)
        self.cache = cache
        self.journal = journal
        self.metrics = metrics if metrics is not None else Metrics()
        self.debug_slow_s = max(0.0, float(debug_slow_s))
        #: Parsed graphs by content address ("csr:<digest>" for streamed
        #: uploads, "spec:<sha256>" for inline specs), least recently
        #: used first.  Written only by this process's event loop.
        self._graphs: OrderedDict[str, Hypergraph] = OrderedDict()
        self.jobs: dict[str, Job] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._queued_count = 0      # admission depth (queue + coalescing)
        self._in_flight = 0         # jobs inside worker dispatches
        self._slots = asyncio.Semaphore(self.workers)
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._batcher_task: asyncio.Task | None = None
        self._stopping = False
        self._scratch = Path(tempfile.mkdtemp(prefix="repro-serve-"))
        self._seq = itertools.count()
        self.metrics.register_gauge("queue_depth",
                                    lambda: float(self._queued_count))
        self.metrics.register_gauge("in_flight",
                                    lambda: float(self._in_flight))
        self.metrics.register_gauge("jobs_tracked",
                                    lambda: float(len(self.jobs)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        from .runner import warm_solver_modules
        warm_solver_modules()       # forked workers inherit warm imports
        self._batcher_task = asyncio.get_running_loop().create_task(
            self._batcher())

    async def stop(self) -> None:
        """Cancel the batcher and every dispatch; kill their workers."""
        self._stopping = True
        tasks = list(self._dispatch_tasks)
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            tasks.append(self._batcher_task)
        for t in tasks:
            t.cancel()
        for t in tasks:
            try:
                await with_deadline(asyncio.shield(t), 5.0)
            except BaseException:  # analyze: allow(silent-except) — shutdown must drain every task even if some died screaming; run_batch kills a dispatch's worker when the dispatch is cancelled
                pass
        shutil.rmtree(self._scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest,
               graph: Hypergraph | None = None) -> Job:
        """Admit one request: cache hit, queue, or shed (429).

        ``graph`` is the parsed graph of a streamed upload; the job
        holds it until it resolves.
        """
        self._purge_finished()
        key = job_key(request)
        job_id = f"j-{next(self._seq):06d}-{uuid.uuid4().hex[:8]}"
        now_mono = time.monotonic()
        deadline_s = (request.deadline_s if request.deadline_s is not None
                      else self.default_deadline_s)
        job = Job(
            id=job_id, request=request, key=key,
            future=asyncio.get_running_loop().create_future(),
            submitted_ts=time.time(), submitted_mono=now_mono,
            deadline_mono=now_mono + deadline_s if deadline_s else None)
        hit = self.cache.get(key) if (self.cache is not None
                                      and request.use_cache) else None
        if hit is not None and "values" in hit:
            self.metrics.inc("cache_hits")
            self.jobs[job_id] = job
            self._resolve(job, status="done", result=hit.get("values"),
                          counters=hit.get("counters", {}),
                          duration_s=hit.get("duration_s", 0.0),
                          cached=True)
            return job
        self.metrics.inc("cache_misses")
        if graph is None and "stream" in request.params.get("graph", {}):
            # a by-digest resubmission can only be answered from the
            # cache: the binary payload is not on this shard
            raise ServeProtocolError(
                "no cached result for this streamed graph; re-upload "
                "it via POST /v1/stream")
        if self._queued_count >= self.queue_limit:
            self.metrics.inc("shed")
            exc = QueueFullError(
                f"admission queue full ({self.queue_limit} queued); "
                "retry later")
            exc.retry_after_s = self.retry_after_hint()
            raise exc
        job.graph = graph
        self.jobs[job_id] = job
        self._queued_count += 1
        self._queue.put_nowait(job)
        self._journal("submit", job)
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFoundError(f"unknown job {job_id!r}") from None

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running jobs finish or hit deadlines)."""
        job = self.get(job_id)
        if job.status == "queued":
            self._resolve(job, status="cancelled",
                          error="cancelled by client")
        return job

    def retry_after_hint(self) -> int:
        """Seconds a shed client should wait before retrying."""
        q = self.metrics.latency_quantiles()
        per_job = max(0.05, q["p50"])
        backlog = self._queued_count + self._in_flight
        return max(1, int(backlog * per_job / self.workers))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _is_small(self, job: Job) -> bool:
        return (job.request.est_pins <= self.small_pins
                and job.request.op != "schedule")

    async def _batcher(self) -> None:
        """Pull jobs, coalesce compatible small ones, dispatch batches.

        A surprise exception fails the jobs of the current beat and
        keeps the loop alive: a dead batcher strands every queued job
        with no error, forever, which is strictly worse than failing
        one beat loudly.
        """
        loop = asyncio.get_running_loop()
        while not self._stopping:
            job = await self._queue.get()
            batch: list[Job] = []
            solo: list[Job] = []
            groups: list[list[Job]] = []
            try:
                batch, solo = self._coalesce_start(job)
                if self._is_small(job) and self.batch_window_s > 0:
                    window_end = loop.time() + self.batch_window_s
                    while batch and len(batch) < self.batch_max:
                        remaining = window_end - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            nxt = await with_deadline(self._queue.get(),
                                                      remaining)
                        except DeadlineExceededError:
                            break
                        more, solo_extra = self._coalesce_start(nxt)
                        solo.extend(solo_extra)
                        for j in more:
                            if self._is_small(j):
                                batch.append(j)
                            else:
                                solo.append(j)
                groups = ([batch] if batch else []) + [[j] for j in solo]
                while groups:
                    group = groups[0]
                    await self._slots.acquire()
                    try:
                        if group is batch:
                            self._top_up(group)
                        task = asyncio.get_running_loop().create_task(
                            self._run_dispatch(group))
                    except BaseException:
                        self._slots.release()
                        raise
                    self._dispatch_tasks.add(task)
                    task.add_done_callback(self._dispatch_tasks.discard)
                    groups.pop(0)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # analyze: allow(silent-except) — not silent: every stranded job of the beat is failed with the error and batcher_errors counts the beat; the batcher surviving is the point
                self.metrics.inc("batcher_errors")
                stranded: dict[int, Job] = {id(job): job}
                for j in (*batch, *solo,
                          *(x for g in groups for x in g)):
                    stranded.setdefault(id(j), j)
                for j in stranded.values():
                    if not j.done:
                        self._queued_count -= 1
                        self._resolve(j, status="error",
                                      error=f"batcher error: {exc!r}")

    def _top_up(self, batch: list[Job]) -> None:
        """Fill a batch from jobs that queued while it awaited a slot.

        Under saturation the coalescing window closes long before a
        worker frees up; without this, everything arriving during the
        slot wait dispatches in fragments.  Non-batchable jobs go back
        to the queue for their own dispatch.
        """
        while len(batch) < self.batch_max:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            more, solo = self._coalesce_start(nxt)
            small = [j for j in more if self._is_small(j)]
            solo.extend(j for j in more if not self._is_small(j))
            batch.extend(small)
            if solo:
                # put it back at the tail and stop: draining further
                # would re-pull it and spin
                self._queue.put_nowait(solo[0])
                break

    def _coalesce_start(self, job: Job) -> tuple[list[Job], list[Job]]:
        """Filter one dequeued job into (batchable, solo) lists.

        Drops jobs that finished while queued (cancelled) and resolves
        jobs whose deadline already passed — they never reach a worker.
        """
        if job.done:
            self._queued_count -= 1
            return [], []
        if (job.deadline_mono is not None
                and time.monotonic() >= job.deadline_mono):
            self._queued_count -= 1
            self._resolve(job, status="timeout",
                          error="deadline exceeded while queued")
            return [], []
        if self._is_small(job):
            return [job], []
        return [], [job]

    async def _run_dispatch(self, batch: list[Job]) -> None:
        members: dict[str, tuple[BatchMember, Job]] = {}
        try:
            for job in batch:
                self._queued_count -= 1
                if job.done:        # cancelled while awaiting a slot
                    continue
                self._in_flight += 1
                job.status = "running"
                job.attempts += 1
                outfile = (self.cache.path(job.key)
                           if self.cache is not None
                           and job.request.use_cache
                           else self._scratch / f"{job.key}.json")
                member = BatchMember(
                    key=job.id, seed=job.request.seed,
                    params=job.request.params, outfile=outfile,
                    errfile=self._scratch / f"{job.id}.err.json",
                    deadline_mono=job.deadline_mono)
                members[job.id] = (member, job)
            for member, job in members.values():
                member.graph = job.graph = await self._graph_for(job)
            self._journal_batch(batch)
            await with_deadline(
                run_batch([m for m, _ in members.values()],
                          on_outcome=self._on_outcome,
                          debug_slow_s=self.debug_slow_s),
                self._batch_budget(batch))
        except DeadlineExceededError:
            # backstop only: run_batch enforces per-member deadlines
            # itself; reaching here means the dispatch wedged entirely
            for _member, job in members.values():
                if not job.done:
                    self._in_flight -= 1
                    self._resolve(job, status="timeout",
                                  error="dispatch wedged past its budget")
        except asyncio.CancelledError:
            for _member, job in members.values():
                if not job.done:
                    self._in_flight -= 1
                    self._resolve(job, status="cancelled",
                                  error="server shutting down")
            raise
        except Exception as exc:  # analyze: allow(silent-except) — not silent: the error is recorded on every affected job and returned to its client; the batcher itself must survive
            # dispatch failed before the worker ran (bad scratch dir,
            # journal disk error, ...): fail the jobs, keep the batcher
            for _member, job in members.values():
                if not job.done:
                    self._in_flight -= 1
                    self._resolve(job, status="error",
                                  error=f"dispatch failed: {exc}")
        finally:
            self._slots.release()

    async def _graph_for(self, job: Job) -> Hypergraph | None:
        """The graph ``job``'s batch worker inherits, or None.

        A streamed job brought its own.  A large inline spec is parsed
        here once, with its incidence, and kept in the graph cache, so
        batch members and back-to-back batches over one spec share the
        parse.  Small specs, and specs that fail to parse here, are left
        to the worker, which reports the per-job error.
        """
        spec = job.request.params["graph"]
        if (job.graph is not None
                or _spec_payload_bytes(spec) < _PARENT_PARSE_MIN_BYTES):
            return job.graph
        ref = "spec:" + hashlib.sha256(
            json.dumps(spec, sort_keys=True).encode()).hexdigest()
        graph = self.cached_graph(ref)
        if graph is None:
            try:
                graph = await asyncio.to_thread(  # analyze: allow(serve-timeout) — CPU-bound parse of an admitted spec (bounded by MAX_PINS and the body limit); a thread cannot be cancelled, so a deadline would only orphan it
                    _parse_with_incidence, job.request.params)
            except (ReproError, MemoryError):
                return None
            self.cache_graph(ref, graph)
        return graph

    def cached_graph(self, ref: str) -> Hypergraph | None:
        """The parsed graph cached under ``ref`` (now most recent), or None."""
        graph = self._graphs.get(ref)
        if graph is not None:
            self._graphs.move_to_end(ref)
        return graph

    def cache_graph(self, ref: str, graph: Hypergraph) -> None:
        """Keep ``graph`` under ``ref``, evicting the least recent past
        the bound (jobs keep their own reference to an evicted graph)."""
        self._graphs[ref] = graph
        self._graphs.move_to_end(ref)
        while len(self._graphs) > _RETAIN_GRAPHS:
            self._graphs.popitem(last=False)

    def _batch_budget(self, batch: list[Job]) -> float:
        """Hard wall-clock cap for one dispatch (backstop, not policy)."""
        now = time.monotonic()
        spans = [(j.deadline_mono - now) for j in batch
                 if j.deadline_mono is not None]
        worst = max(spans) if spans else self.default_deadline_s
        return max(1.0, worst) + 10.0

    def _on_outcome(self, member: BatchMember,
                    outcome: MemberOutcome) -> None:
        job = self.jobs.get(member.key)
        if job is None or job.done:
            return
        self._in_flight -= 1
        if outcome.status == "ok":
            payload = outcome.payload or {}
            self._resolve(job, status="done",
                          result=payload.get("values"),
                          counters=payload.get("counters", {}),
                          duration_s=payload.get("duration_s", 0.0))
        elif outcome.status == "timeout":
            self._resolve(job, status="timeout", error=outcome.error)
        elif (outcome.status == "lost"
              and job.attempts < _MAX_ATTEMPTS
              and not self._stopping
              and (job.deadline_mono is None
                   or time.monotonic() < job.deadline_mono)):
            # collateral of a sibling's deadline kill: requeue once
            job.status = "queued"
            self._queued_count += 1
            self.metrics.inc("requeued")
            self._queue.put_nowait(job)
        else:
            self._resolve(job, status="error",
                          error=outcome.error or "job lost")

    # ------------------------------------------------------------------
    # Resolution & bookkeeping
    # ------------------------------------------------------------------
    def _resolve(self, job: Job, *, status: str, result: Any = None,
                 counters: dict | None = None, duration_s: float = 0.0,
                 error: str | None = None, cached: bool = False) -> None:
        job.status = status
        job.result = result
        job.counters = counters or {}
        job.duration_s = float(duration_s)
        job.error = error
        job.cached = cached
        job.finished_ts = time.time()
        job.latency_s = time.monotonic() - job.submitted_mono
        job.graph = None            # finished jobs stay in the table
        self.metrics.inc(f"jobs_{status}")
        if status == "done":
            self.metrics.observe_latency(job.latency_s)
            self.metrics.merge_worker_counters(job.counters)
        if not job.future.done():
            job.future.set_result(job)
        self._journal("finish", job)

    def _purge_finished(self) -> None:
        """Bound the jobs table: drop old finished jobs past retention."""
        if len(self.jobs) <= _RETAIN_JOBS:
            return
        now = time.time()
        finished = [j for j in self.jobs.values()
                    if j.done and j.finished_ts is not None]
        finished.sort(key=lambda j: j.finished_ts)
        excess = len(self.jobs) - _RETAIN_JOBS
        for job in finished:
            if excess <= 0 and now - (job.finished_ts or now) < _RETAIN_S:
                break
            del self.jobs[job.id]
            excess -= 1

    def _journal(self, event: str, job: Job) -> None:
        if self.journal is None:
            return
        self.journal.record(
            f"serve_{event}", job_id=job.id, key=job.key,
            op=job.request.op, status=job.status, cached=job.cached,
            attempts=job.attempts, duration_s=round(job.duration_s, 6),
            latency_s=round(job.latency_s, 6), error=job.error)

    def _journal_batch(self, batch: list[Job]) -> None:
        if self.journal is not None:
            self.journal.record("serve_dispatch",
                                jobs=[j.id for j in batch],
                                size=len(batch))

    # ------------------------------------------------------------------
    # Introspection (HTTP layer)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queued_count

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def job_summaries(self, limit: int = 100) -> list[dict]:
        jobs = sorted(self.jobs.values(), key=lambda j: j.submitted_ts,
                      reverse=True)
        return [j.describe(with_result=False) for j in jobs[:limit]]
