"""HTTP front end: hand-rolled HTTP/1.1 over ``asyncio.start_server``.

Pure stdlib by design (the container has no web framework and the repo
bakes in that constraint); the protocol subset is exactly what the
client and the load harness speak: ``Content-Length``-framed requests
with JSON bodies, keep-alive connections, no chunked encoding.  The
connection and signal loops are the mesh router's too, in
:mod:`repro.serve.http`; this module holds the shard's routes.

Routes::

    POST   /v1/partition    solve (mode: sync | async | auto)
    POST   /v1/jobs         always async: returns a job handle
    POST   /v1/stream       binary CSR ingest straight into numpy arrays
    GET    /v1/jobs         recent job summaries
    GET    /v1/jobs/{id}    poll one job (result included when done)
    DELETE /v1/jobs/{id}    cancel a queued job
    GET    /healthz         liveness + queue/cache/memory snapshot
    GET    /metrics         Prometheus text exposition

``/v1/stream`` is the exception to "JSON in, JSON out": its body is
the length-prefixed frame format of :mod:`repro.serve.stream`, read
incrementally off the socket into the graph's arrays instead of being
materialised here (the framing helpers live in :mod:`repro.serve.http`
and the frame head reader in :mod:`repro.serve.stream`, so the mesh
router can relay the same bytes).

Error mapping: :class:`ServeProtocolError` → 400,
:class:`JobNotFoundError` → 404, :class:`QueueFullError` → 429 with
``Retry-After``, :class:`DeadlineExceededError` on a sync wait → 504
(the job keeps its handle and can still be polled).  A bad or
oversized Content-Length (400, 413) or any ``Transfer-Encoding`` (501)
also closes the connection.  Any other :class:`ReproError` → 500 with
the error text — never a traceback mid-connection.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import time
from dataclasses import dataclass

from ..errors import (DeadlineExceededError, JobNotFoundError,
                      QueueFullError, ReproError, ServeProtocolError)
from ..lab.cache import ResultCache
from ..lab.journal import RunJournal
from .http import HttpError, handle_connection, serve_forever
from .jobs import JobManager, with_deadline
from .metrics import Metrics
from .protocol import parse_job_request
from .stream import ingest_stream

__all__ = ["ServeConfig", "Server", "run_server"]

#: Sync requests whose estimated size is below this run in "auto" mode
#: without a handle round-trip; bigger ones get a 202 + job handle.
_AUTO_SYNC_PINS = 200_000

#: Exception class → status for errors a shard's handlers raise.
_STATUSES = ((ServeProtocolError, 400), (JobNotFoundError, 404),
             (QueueFullError, 429), (ReproError, 500))


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune from the command line."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    batch_max: int = 8
    batch_window_s: float = 0.01
    queue_limit: int = 128
    default_deadline_s: float = 60.0
    cache_dir: str | None = ".lab-cache"
    journal_path: str | None = None
    #: Mesh shard identity; echoed in /healthz and job handles so the
    #: router (and the chaos harness) can tell who served what.
    shard_id: str | None = None
    #: Debug-only worker slowdown (seconds per job) injected by the
    #: mesh harness to manufacture a slow shard; 0 disables it.
    debug_slow_s: float = 0.0


class Server:
    """One serving instance: a JobManager plus the HTTP loop."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.metrics = Metrics()
        cache = (ResultCache(cfg.cache_dir) if cfg.cache_dir else None)
        journal = (RunJournal(cfg.journal_path) if cfg.journal_path
                   else None)
        self.journal = journal
        self.manager = JobManager(
            workers=cfg.workers, batch_max=cfg.batch_max,
            batch_window_s=cfg.batch_window_s,
            queue_limit=cfg.queue_limit,
            default_deadline_s=cfg.default_deadline_s,
            cache=cache, journal=journal,
            metrics=self.metrics, debug_slow_s=cfg.debug_slow_s)
        self._server: asyncio.AbstractServer | None = None
        self._started_ts = time.time()
        self.port: int | None = None   # actual port (after bind)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.manager.start()
        self._server = await asyncio.start_server(  # analyze: allow(serve-timeout) — bind/listen at startup; nothing to time-box yet and failure must propagate to the CLI
            functools.partial(handle_connection, route=self._route,
                              stream=self._handle_stream,
                              metrics=self.metrics, statuses=_STATUSES),
            self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_ts = time.time()
        if self.journal is not None:
            self.journal.record("serve_start", host=self.config.host,
                                port=self.port,
                                workers=self.config.workers)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await with_deadline(self._server.wait_closed(), 5.0)
        await self.manager.stop()
        if self.journal is not None:
            self.journal.record("serve_stop")
            self.journal.close()

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
        if target == "/v1/partition" and method == "POST":
            return await self._handle_solve(body)
        if target == "/v1/jobs" and method == "POST":
            return await self._handle_solve(body, force_async=True)
        if target == "/v1/jobs" and method == "GET":
            return 200, {"jobs": self.manager.job_summaries()}, {}
        if target.startswith("/v1/jobs/"):
            job_id = target[len("/v1/jobs/"):]
            if method == "GET":
                return 200, self._tag(self.manager.get(job_id)
                                      .describe()), {}
            if method == "DELETE":
                return 200, self._tag(self.manager.cancel(job_id)
                                      .describe()), {}
        raise HttpError(405 if target in ("/v1/partition", "/v1/jobs",
                                          "/v1/stream", "/healthz",
                                          "/metrics")
                        else 404,
                        f"no route for {method} {target}")

    async def _handle_solve(self, body: bytes,
                            force_async: bool = False):
        try:
            obj = json.loads(body or b"{}")
        except ValueError:
            raise HttpError(400, "request body is not valid JSON") \
                from None
        request = parse_job_request(obj)
        job = self.manager.submit(request)
        mode = "async" if force_async else request.mode
        if mode == "auto":
            mode = ("sync" if request.est_pins <= _AUTO_SYNC_PINS
                    else "async")
        if job.done or mode == "async":
            status = 200 if job.done else 202
            return status, self._tag(job.describe()), {}
        remaining = None
        if job.deadline_mono is not None:
            remaining = max(0.05, job.deadline_mono - time.monotonic())
        try:
            await with_deadline(asyncio.shield(job.future), remaining)
        except DeadlineExceededError:
            return 504, self._tag(job.describe(with_result=False)), {}
        return 200, self._tag(job.describe()), {}

    async def _handle_stream(self, reader: asyncio.StreamReader,
                             headers: dict) -> tuple[int, dict, dict]:
        """Binary CSR ingest: array-backed submit, always async."""
        job = await ingest_stream(reader, headers, manager=self.manager,
                                  metrics=self.metrics)
        status = 200 if job.done else 202
        return status, self._tag(job.describe()), {}

    def _tag(self, payload: dict) -> dict:
        """Stamp this shard's identity onto a job handle."""
        if self.config.shard_id is not None:
            payload["shard"] = self.config.shard_id
        return payload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {
            "status": "ok",
            "shard": self.config.shard_id,
            "uptime_s": round(time.time() - self._started_ts, 3),
            "pid": os.getpid(),
            "queue_depth": self.manager.queue_depth,
            "in_flight": self.manager.in_flight,
            "workers": self.manager.workers,
            "queue_limit": self.manager.queue_limit,
            "metrics": self.metrics.snapshot(),
        }


async def run_server(config: ServeConfig | None = None) -> None:
    """Entry point used by ``repro serve``."""
    await serve_forever(Server(config), "repro serve")
