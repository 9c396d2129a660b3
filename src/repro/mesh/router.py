"""The mesh router: consistent-hash dispatch, hedging, failure handling.

One stdlib asyncio process in front of N ``repro serve`` shards.  The
router speaks the exact same HTTP surface as a shard (clients don't
care whether they talk to one shard or the mesh) and adds:

* **routing by cache key** — a request's ``.lab-cache`` key (computed
  exactly as the shard computes it) is hashed onto
  :class:`~repro.mesh.ring.HashRing`; in-flight work for one key lands
  on one shard (single computation + warm cache locality), while the
  *shared cache root* means any shard can serve a repeat of a
  completed key — failover needs no state transfer.
* **hedged dispatch** — a sync solve still unanswered after the hedge
  delay (``_HEDGE_FACTOR`` x the rolling p50 of sync latencies, clamped
  to ``[hedge_min_s, hedge_max_s]``) is re-dispatched to the next
  shard in the key's preference order; the first success wins.
  Deterministic cancel-the-loser: when both are complete the primary
  is preferred, and the loser is cancelled (its worker-side result, if
  any, is an idempotent cache write — duplicates are harmless).
  Exposed as the ``repro_mesh_hedge_*`` Prometheus family.
* **requeue-exactly-once** — an acknowledged async job whose shard
  dies (transport failure, or a 404 from a restarted shard that lost
  its job table) is resubmitted once to the next alive shard in its
  preference order; a completed key resolves instantly as a cache hit
  there.  ``_MAX_REQUEUE`` bounds it so a poisoned job cannot bounce
  around the mesh forever.
* **stream relay** — ``POST /v1/stream`` bodies are forwarded to the
  owning shard in 64 KiB pieces as they arrive; the router reads only
  the frame header (for the routing key) and never materialises the
  pin arrays.

Transport: shard calls run on the event loop over asyncio streams,
each on an idle keep-alive connection of its shard or a new one.  A
connection is pooled again only after a completed call whose reply
allows keep-alive; an error or a cancellation closes it, so a
cancelled hedge loser hangs up on its shard, and no call (a health
probe included) ever waits for another.  The connection and signal
loops are the shard's own, from :mod:`repro.serve.http`.

Determinism discipline: router coroutines are analyze determinism
roots, so this module draws on no entropy and no wall clock — job ids
are sequential (``m0000001``), time is ``time.monotonic`` only, and
admission parsing (which reads runner source) runs through
``asyncio.to_thread``, which also keeps the async-blocking pass
honest.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..errors import (DeadlineExceededError, JobNotFoundError, MeshError,
                      NoShardAvailableError, ReproError, ServeClientError,
                      ServeProtocolError)
from ..serve.http import (HttpError, handle_connection, read_response,
                          serve_forever)
from ..serve.jobs import FINAL_STATUSES, with_deadline
from ..serve.metrics import Metrics
from ..serve.protocol import parse_job_request
from ..serve.runner import job_key
from ..serve.stream import (READ_DEADLINE_S, STREAM_CONTENT_TYPE,
                            read_stream_head, stream_graph_spec)
from .ring import HashRing
from .shards import ShardSpec

__all__ = ["MeshConfig", "MeshJob", "Router", "run_router"]

_RELAY_CHUNK = 64 * 1024
_LATENCY_WINDOW = 512
_HEDGE_FACTOR = 4.0                 # x rolling p50 of sync latencies
_PROBE_TIMEOUT_S = 2.0
_ADMIT_TIMEOUT_S = 10.0
_CONNECT_TIMEOUT_S = 5.0
_MAX_REQUEUE = 1                    # resubmissions per acknowledged job
_RETAIN_JOBS = 4096

#: Exception class → status for errors the router's handlers raise.  A
#: shard's 429 reaches the router as a status, never as an exception.
_STATUSES = ((NoShardAvailableError, 503), (ServeProtocolError, 400),
             (JobNotFoundError, 404), ((ReproError, OSError), 502))


@dataclass
class MeshConfig:
    """Router settings; ``repro mesh up`` sets host, port, shards, hedge."""

    host: str = "127.0.0.1"
    port: int = 0
    shards: tuple[ShardSpec, ...] = ()
    hedge: bool = True
    hedge_min_s: float = 0.05
    hedge_max_s: float = 1.0
    probe_interval_s: float = 0.25
    client_timeout_s: float = 120.0


@dataclass
class MeshJob:
    """Router-side record of one acknowledged (202) job."""

    rid: str
    key: str
    body: dict                      # JSON-able resubmission payload
    shard: str
    shard_job_id: str
    attempts: int = 1               # submissions so far (initial + requeues)
    final: dict | None = None       # cached final describe (rid-rewritten)
    busy: bool = False              # a requeue is in flight for this job


class Router:
    """One mesh front process over a fixed shard set."""

    def __init__(self, config: MeshConfig) -> None:
        if not config.shards:
            raise MeshError("mesh router needs at least one shard")
        self.config = config
        self.metrics = Metrics(prefix="repro_mesh_")
        self.shards: dict[str, ShardSpec] = {s.id: s for s in config.shards}
        self.ring = HashRing(self.shards)
        # idle keep-alive (reader, writer) pairs per shard, newest last
        self._idle: dict[str, list] = {sid: [] for sid in self.shards}
        self._stopped = False
        self._down: set[str] = set()
        self._jobs: dict[str, MeshJob] = {}
        self._seq = itertools.count(1)
        self._lat: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._server: asyncio.AbstractServer | None = None
        self._probe_task: asyncio.Task | None = None
        self.port: int | None = None
        self.metrics.register_gauge(
            "shards_alive",
            lambda: float(len(self.shards) - len(self._down)))
        self.metrics.register_gauge(
            "jobs_tracked", lambda: float(len(self._jobs)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(  # analyze: allow(serve-timeout) — bind/listen at startup; nothing to time-box yet and failure must propagate to the CLI
            functools.partial(handle_connection, route=self._route,
                              stream=self._handle_stream,
                              metrics=self.metrics, statuses=_STATUSES),
            self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop())

    async def stop(self) -> None:
        self._stopped = True        # a call still running closes its own
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await with_deadline(asyncio.shield(self._probe_task), 2.0)
            except BaseException:  # analyze: allow(silent-except) — the probe task only sleeps and probes; cancellation is its normal exit
                pass
        if self._server is not None:
            self._server.close()
            await with_deadline(self._server.wait_closed(), 5.0)
        for idle in self._idle.values():
            for _reader, writer in idle:
                writer.close()
            idle.clear()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str,
                     body: bytes) -> tuple[int, dict, dict]:
        target = target.split("?", 1)[0]
        if target == "/healthz" and method == "GET":
            return 200, self._health(), {}
        if target == "/metrics" and method == "GET":
            return 200, {"_raw": self.metrics.render_prometheus()}, {}
        if target == "/v1/mesh" and method == "GET":
            return 200, self._mesh_info(), {}
        if target == "/v1/partition" and method == "POST":
            return await self._handle_solve(body)
        if target == "/v1/jobs" and method == "POST":
            return await self._handle_submit(body)
        if target == "/v1/jobs" and method == "GET":
            return 200, {"jobs": self._job_summaries()}, {}
        if target.startswith("/v1/jobs/"):
            rid = target[len("/v1/jobs/"):]
            if method == "GET":
                return await self._handle_poll(rid)
            if method == "DELETE":
                return await self._handle_cancel(rid)
        raise HttpError(405 if target in ("/v1/partition", "/v1/jobs",
                                          "/v1/stream", "/v1/mesh",
                                          "/healthz", "/metrics")
                        else 404,
                        f"no route for {method} {target}")

    # ------------------------------------------------------------------
    # Shard transport
    # ------------------------------------------------------------------
    async def _shard_call(self, sid: str, method: str, path: str,
                          body: dict | None = None,
                          timeout_s: float | None = None,
                          ) -> tuple[int, Any, dict]:
        """One keep-alive HTTP call to a shard; the body decoded as JSON
        for ``application/json``, as text otherwise.

        Transport failure marks the shard down (the probe loop revives
        it) and re-raises; HTTP-level errors come back as plain status
        codes for the caller to interpret.
        """
        budget = (self.config.client_timeout_s if timeout_s is None
                  else timeout_s)
        spec = self.shards[sid]
        payload = b"" if body is None else json.dumps(body).encode()
        request = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {spec.host}:{spec.port}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {len(payload)}\r\n\r\n"
                   ).encode() + payload
        try:
            status, headers, raw = await with_deadline(
                self._exchange(sid, request), budget)
            if not headers.get("content-type", "").startswith(
                    "application/json"):
                return status, raw.decode(errors="replace"), headers
            try:
                return status, json.loads(raw) if raw else {}, headers
            except ValueError as exc:
                raise ServeClientError(
                    f"undecodable response body from shard {sid}: "
                    f"{raw[:200]!r}") from exc
        except (ServeClientError, DeadlineExceededError, OSError):
            self._mark_down(sid)
            raise

    async def _exchange(self, sid: str, request: bytes,
                        ) -> tuple[int, dict[str, str], bytes]:
        """Send one request and read its reply; a transport error is
        retried once on a new connection, an unopenable one is not."""
        idle = self._idle[sid]
        for attempt in (1, 2):
            reader, writer = (idle.pop() if idle and attempt == 1
                              else await self._connect(sid))
            try:
                writer.write(request)
                await writer.drain()
                status, headers, raw = await read_response(
                    reader, self.config.client_timeout_s)
                break
            except (OSError, asyncio.IncompleteReadError, HttpError) as exc:
                writer.close()
                if attempt == 2:
                    raise ServeClientError(
                        f"cannot reach shard {sid}: {exc}") from exc
            except BaseException:
                writer.close()      # deadline or cancellation: hang up
                raise
        if headers.get("connection") == "close" or self._stopped:
            writer.close()
        else:
            idle.append((reader, writer))
        return status, headers, raw

    async def _connect(self, sid: str) -> tuple[asyncio.StreamReader,
                                                asyncio.StreamWriter]:
        spec = self.shards[sid]
        return await with_deadline(
            asyncio.open_connection(spec.host, spec.port),
            _CONNECT_TIMEOUT_S)

    def _mark_down(self, sid: str) -> None:
        if sid not in self._down:
            self._down.add(sid)
            self.metrics.inc("shard_down_marks")

    def _alive_order(self, key: str) -> list[str]:
        order = [sid for sid in self.ring.preference(key)
                 if sid not in self._down]
        if not order:
            raise NoShardAvailableError(
                f"all {len(self.shards)} shards are marked down")
        return order

    async def _probe_loop(self) -> None:
        """Revive down shards; requeue jobs orphaned on dead ones.

        One surprise exception must not kill the loop: a dead probe
        loop means down shards stay down forever and orphaned jobs are
        never requeued, which is strictly worse than skipping a beat.
        """
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            try:
                for sid in sorted(self._down):
                    try:
                        status, _payload, _hdrs = await self._shard_call(
                            sid, "GET", "/healthz",
                            timeout_s=_PROBE_TIMEOUT_S)
                    except (ReproError, OSError):
                        continue
                    if status == 200:
                        self._down.discard(sid)
                        self.metrics.inc("shard_revivals")
                for job in [j for j in self._jobs.values()
                            if j.final is None and j.shard in self._down]:
                    await self._requeue(job, "owning shard is down")
            except asyncio.CancelledError:
                raise
            except Exception:  # analyze: allow(silent-except) — not silent: probe_loop_errors counts each beat lost; the loop surviving is the point
                self.metrics.inc("probe_loop_errors")

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_sync(self, body: bytes) -> tuple[dict, str, Any]:
        """Parse + key one JSON request (blocking: reads runner source)."""
        try:
            obj = json.loads(body or b"{}")
        except ValueError:
            raise ServeProtocolError(
                "request body is not valid JSON") from None
        request = parse_job_request(obj)
        return obj, job_key(request), request

    async def _admit(self, body: bytes) -> tuple[dict, str, Any]:
        return await with_deadline(
            asyncio.to_thread(self._admit_sync, body), _ADMIT_TIMEOUT_S)

    # ------------------------------------------------------------------
    # Solve (sync path, hedged)
    # ------------------------------------------------------------------
    async def _handle_solve(self, body: bytes) -> tuple[int, dict, dict]:
        obj, key, _request = await self._admit(body)
        t0 = time.monotonic()
        errors: list[str] = []
        tried: set[str] = set()
        for _attempt in range(2):   # primary, then one failover
            order = [sid for sid in self._alive_order(key)
                     if sid not in tried]
            if not order:
                break
            sid = order[0]
            tried.add(sid)
            hedge_sid = next((s for s in order[1:]), None)
            try:
                status, payload, hdrs = await self._dispatch_hedged(
                    sid, hedge_sid, obj)
            except (ServeClientError, DeadlineExceededError, OSError) as exc:
                errors.append(f"{sid}: {exc}")
                self.metrics.inc("failovers")
                continue
            if status in (200, 202) and isinstance(payload, dict) \
                    and "job_id" in payload:
                self._lat.append(time.monotonic() - t0)
                self.metrics.observe_latency(time.monotonic() - t0)
                job = self._register(sid, key, obj, payload)
                payload = dict(payload, job_id=job.rid)
            return self._reply(status, payload, hdrs)
        raise HttpError(503, "no shard could take the job: "
                             + "; ".join(errors or ["none alive"]))

    @staticmethod
    def _reply(status: int, payload: Any,
               hdrs: dict) -> tuple[int, dict, dict]:
        """A shard's answer as the router's: a text body becomes an
        error payload, and the shard's Retry-After is passed on."""
        extra = ({"Retry-After": hdrs["retry-after"]}
                 if "retry-after" in hdrs else {})
        return status, payload if isinstance(payload, dict) \
            else {"error": str(payload)}, extra

    def _hedge_delay(self) -> float:
        """Current hedge trigger: factor x rolling p50, clamped.

        The p50 (not p99/p95) keeps the estimate robust against the
        very contamination hedging exists to fix — one slow shard
        inflates the upper quantiles with exactly the latencies we want
        to cut off, but moves the median only once it owns half the
        traffic.
        """
        window = sorted(self._lat)
        if not window:
            return self.config.hedge_max_s
        p50 = window[len(window) // 2]
        return min(self.config.hedge_max_s,
                   max(self.config.hedge_min_s,
                       _HEDGE_FACTOR * p50))

    @staticmethod
    def _abandon(task: asyncio.Task) -> None:
        """Cancel and detach a task whose outcome no longer matters.

        The done-callback retrieves the exception so an attempt that
        fails after being abandoned never logs "exception was never
        retrieved" (its shard was already marked down by
        ``_shard_call`` itself).
        """
        task.cancel()
        task.add_done_callback(lambda t: t.cancelled() or t.exception())

    async def _dispatch_hedged(self, sid: str, hedge_sid: str | None,
                               obj: dict) -> tuple[int, Any, dict]:
        """POST a solve to ``sid``; hedge onto ``hedge_sid`` if slow."""
        budget = self.config.client_timeout_s
        primary = asyncio.get_running_loop().create_task(
            self._shard_call(sid, "POST", "/v1/partition", obj))
        if not self.config.hedge or hedge_sid is None:
            try:
                return await with_deadline(asyncio.shield(primary),
                                           budget)
            except BaseException:
                # deadline hit or caller cancelled: the shielded task
                # would otherwise keep running unsupervised
                self._abandon(primary)
                raise
        try:
            return await with_deadline(asyncio.shield(primary),
                                       self._hedge_delay())
        except DeadlineExceededError:
            pass                    # primary is slow: hedge
        except BaseException:
            self._abandon(primary)
            raise
        self.metrics.inc("hedge_started")
        hedge = asyncio.get_running_loop().create_task(
            self._shard_call(hedge_sid, "POST", "/v1/partition", obj))
        pending: set[asyncio.Task] = {primary, hedge}
        deadline = time.monotonic() + budget
        winner: asyncio.Task | None = None
        try:
            while pending and winner is None:
                done, pending = await with_deadline(
                    asyncio.wait(pending,
                                 return_when=asyncio.FIRST_COMPLETED),
                    max(0.05, deadline - time.monotonic()))
                # deterministic winner selection: primary preferred when
                # both are complete, regardless of completion order
                for task in (primary, hedge):
                    if (task in done or task.done()) \
                            and not task.cancelled() \
                            and task.exception() is None:
                        winner = task
                        break
        except BaseException:
            # overall budget exhausted or caller cancelled: neither
            # attempt can win any more
            self._abandon(primary)
            self._abandon(hedge)
            raise
        if winner is None:
            # both attempts failed; surface the primary's error
            self._abandon(hedge)
            self.metrics.inc("hedge_both_failed")
            return primary.result()     # raises
        loser = hedge if winner is primary else primary
        if not loser.done():
            self.metrics.inc("hedge_cancelled")
        self._abandon(loser)
        self.metrics.inc("hedge_win_primary" if winner is primary
                         else "hedge_win_hedge")
        return winner.result()

    # ------------------------------------------------------------------
    # Async jobs
    # ------------------------------------------------------------------
    async def _handle_submit(self, body: bytes) -> tuple[int, dict, dict]:
        obj, key, _request = await self._admit(body)
        errors: list[str] = []
        tried: set[str] = set()
        for _attempt in range(2):
            order = [sid for sid in self._alive_order(key)
                     if sid not in tried]
            if not order:
                break
            sid = order[0]
            tried.add(sid)
            try:
                status, payload, hdrs = await self._shard_call(
                    sid, "POST", "/v1/jobs", obj)
            except (ServeClientError, DeadlineExceededError, OSError) as exc:
                errors.append(f"{sid}: {exc}")
                self.metrics.inc("failovers")
                continue
            if status in (200, 202) and isinstance(payload, dict):
                job = self._register(sid, key, obj, payload)
                payload = dict(payload, job_id=job.rid)
            return self._reply(status, payload, hdrs)
        raise HttpError(503, "no shard could take the job: "
                             + "; ".join(errors or ["none alive"]))

    def _register(self, sid: str, key: str, obj: dict,
                  payload: dict) -> MeshJob:
        rid = f"m{next(self._seq):07d}"
        job = MeshJob(rid=rid, key=key, body=obj, shard=sid,
                      shard_job_id=payload.get("job_id", ""))
        if payload.get("status") in FINAL_STATUSES:
            job.final = dict(payload, job_id=rid)
        self._jobs[rid] = job
        self._purge_jobs()
        return job

    def _purge_jobs(self) -> None:
        excess = len(self._jobs) - _RETAIN_JOBS
        if excess <= 0:
            return
        for rid in [r for r in self._jobs
                    if self._jobs[r].final is not None][:excess]:
            del self._jobs[rid]     # oldest first: rids are sequential

    def _job(self, rid: str) -> MeshJob:
        try:
            return self._jobs[rid]
        except KeyError:
            raise JobNotFoundError(f"unknown job {rid!r}") from None

    def _live_state(self, job: MeshJob) -> dict:
        return {"job_id": job.rid, "status": "queued",
                "attempts": job.attempts, "shard": job.shard,
                "cached": False}

    async def _handle_poll(self, rid: str) -> tuple[int, dict, dict]:
        job = self._job(rid)
        if job.final is not None:
            return 200, job.final, {}
        if job.shard in self._down:
            await self._requeue(job, "owning shard is down")
            return 200, job.final or self._live_state(job), {}
        try:
            status, payload, _hdrs = await self._shard_call(
                job.shard, "GET", f"/v1/jobs/{job.shard_job_id}")
        except (ServeClientError, DeadlineExceededError, OSError):
            await self._requeue(job, "shard unreachable on poll")
            return 200, job.final or self._live_state(job), {}
        if status == 404:
            # the shard restarted and lost its in-memory job table —
            # the job itself may have finished into the shared cache,
            # which is exactly what the resubmission will find
            await self._requeue(job, "shard restarted without the job")
            return 200, job.final or self._live_state(job), {}
        if status != 200 or not isinstance(payload, dict):
            return 200, self._live_state(job), {}
        payload = dict(payload, job_id=rid)
        if payload.get("status") in FINAL_STATUSES:
            job.final = payload
        return 200, payload, {}

    async def _handle_cancel(self, rid: str) -> tuple[int, dict, dict]:
        job = self._job(rid)
        if job.final is not None:
            return 200, job.final, {}
        try:
            status, payload, _hdrs = await self._shard_call(
                job.shard, "DELETE", f"/v1/jobs/{job.shard_job_id}")
        except (ServeClientError, DeadlineExceededError, OSError):
            return 200, self._live_state(job), {}
        if status == 200 and isinstance(payload, dict):
            payload = dict(payload, job_id=rid)
            if payload.get("status") in FINAL_STATUSES:
                job.final = payload
            return 200, payload, {}
        return 200, self._live_state(job), {}

    async def _requeue(self, job: MeshJob, reason: str) -> None:
        """Resubmit an orphaned job once; finalise it if that's spent.

        Exactly-once discipline: ``attempts`` counts submissions and a
        concurrent-requeue guard (``busy``) keeps overlapping polls
        from double-submitting while the resubmission is in flight.
        """
        if job.final is not None or job.busy:
            return
        if job.attempts > _MAX_REQUEUE:
            job.final = {"job_id": job.rid, "status": "error",
                         "attempts": job.attempts, "cached": False,
                         "error": f"lost after shard failure ({reason}); "
                                  "requeue budget spent"}
            self.metrics.inc("jobs_lost")
            return
        job.busy = True
        try:
            try:
                order = [sid for sid in self._alive_order(job.key)]
            except NoShardAvailableError:
                return              # keep the attempt; probe may revive
            sid = order[0]
            job.attempts += 1
            self.metrics.inc("requeued")
            try:
                status, payload, _hdrs = await self._shard_call(
                    sid, "POST", "/v1/jobs", job.body)
            except (ServeClientError, DeadlineExceededError, OSError) as exc:
                job.final = {"job_id": job.rid, "status": "error",
                             "attempts": job.attempts, "cached": False,
                             "error": f"requeue to {sid} failed: {exc}"}
                self.metrics.inc("jobs_lost")
                return
            if status in (200, 202) and isinstance(payload, dict):
                job.shard = sid
                job.shard_job_id = payload.get("job_id", "")
                if payload.get("status") in FINAL_STATUSES:
                    job.final = dict(payload, job_id=job.rid)
                return
            error = (payload.get("error") if isinstance(payload, dict)
                     else str(payload))
            job.final = {"job_id": job.rid, "status": "error",
                         "attempts": job.attempts, "cached": False,
                         "error": f"requeue rejected with HTTP {status}: "
                                  f"{error}"}
            self.metrics.inc("jobs_lost")
        finally:
            job.busy = False

    # ------------------------------------------------------------------
    # Stream relay
    # ------------------------------------------------------------------
    async def _handle_stream(self, reader: asyncio.StreamReader,
                             headers: dict) -> tuple[int, dict, dict]:
        frame = await read_stream_head(reader, headers)
        try:
            key = await with_deadline(
                asyncio.to_thread(job_key, frame.request), _ADMIT_TIMEOUT_S)
        except ReproError as exc:
            raise HttpError(400, str(exc), close=True) from exc
        sid = self._alive_order(key)[0]
        spec = self.shards[sid]
        try:
            shard_reader, shard_writer = await self._connect(sid)
        except (OSError, DeadlineExceededError) as exc:
            self._mark_down(sid)
            raise HttpError(503, f"shard {sid} unreachable for stream "
                                 f"relay: {exc}", close=True) from exc
        try:
            head = (f"POST /v1/stream HTTP/1.1\r\n"
                    f"Host: {spec.host}:{spec.port}\r\n"
                    f"Content-Type: {STREAM_CONTENT_TYPE}\r\n"
                    f"Content-Length: {frame.total}\r\n"
                    f"Connection: close\r\n\r\n")
            shard_writer.write(head.encode() + frame.head)
            await shard_writer.drain()
            remaining = frame.total - frame.consumed
            while remaining > 0:
                chunk = await with_deadline(
                    reader.read(min(_RELAY_CHUNK, remaining)),
                    READ_DEADLINE_S)
                if not chunk:
                    raise HttpError(400, "client closed mid-stream",
                                    close=True)
                remaining -= len(chunk)
                shard_writer.write(chunk)
                await shard_writer.drain()
            status, shard_headers, raw_body = await read_response(
                shard_reader, self.config.client_timeout_s)
        except HttpError:
            raise
        except (OSError, ConnectionError, asyncio.IncompleteReadError,
                DeadlineExceededError) as exc:
            # mid-relay shard death: the upload was never acknowledged,
            # so this is a client-visible 502, not a lost job
            self._mark_down(sid)
            raise HttpError(502, f"stream relay to shard {sid} failed: "
                                 f"{exc}", close=True) from exc
        finally:
            try:
                shard_writer.close()
                await with_deadline(shard_writer.wait_closed(), 2.0)
            except (Exception, DeadlineExceededError):  # analyze: allow(silent-except) — relay socket teardown race; the fd is closed either way
                pass
        try:
            payload = json.loads(raw_body) if raw_body else {}
        except ValueError:
            raise HttpError(502, "undecodable shard response to stream "
                                 "relay") from None
        self.metrics.inc("stream_relays")
        self.metrics.inc("stream_relay_bytes", by=float(frame.total))
        if status in (200, 202) and isinstance(payload, dict) \
                and "job_id" in payload:
            # resubmission body: the original request around the graph's
            # content address — a requeue can re-run it as a JSON submit
            # (cache hit if the job finished; an explicit 400 if the
            # payload truly died with the shard)
            body = dict(frame.header.get("request", {}))
            body["graph"] = stream_graph_spec(
                **frame.request.params["graph"]["stream"])
            job = self._register(sid, key, body, payload)
            payload = dict(payload, job_id=job.rid)
        return self._reply(status, payload, shard_headers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {
            "status": "ok",
            "role": "mesh-router",
            "shards": {sid: {"host": spec.host, "port": spec.port,
                             "alive": sid not in self._down}
                       for sid, spec in self.shards.items()},
            "jobs_tracked": len(self._jobs),
            "hedge": self.config.hedge,
            "hedge_delay_s": round(self._hedge_delay(), 6),
            "metrics": self.metrics.snapshot(),
        }

    def _mesh_info(self) -> dict:
        live = [j for j in self._jobs.values() if j.final is None]
        return {
            "shards": sorted(self.shards),
            "down": sorted(self._down),
            "replicas": self.ring.replicas,
            "jobs_live": len(live),
            "jobs_tracked": len(self._jobs),
            "hedge_delay_s": round(self._hedge_delay(), 6),
        }

    def _job_summaries(self, limit: int = 100) -> list[dict]:
        out = []
        for rid in sorted(self._jobs, reverse=True)[:limit]:
            job = self._jobs[rid]
            state = (job.final.get("status") if job.final is not None
                     else "live")
            out.append({"job_id": rid, "shard": job.shard,
                        "status": state, "attempts": job.attempts})
        return out


async def run_router(config: MeshConfig) -> None:
    """Entry point used by ``repro mesh up``."""
    await serve_forever(Router(config), "repro mesh")
