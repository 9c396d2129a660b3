"""Blocking Python client for the serving API.

Built on :mod:`http.client` (stdlib; one persistent keep-alive
connection per :class:`ServeClient`).  Error mapping mirrors the
server's: 429 raises :class:`~repro.errors.QueueFullError` carrying the
``Retry-After`` hint, 400/404 and transport failures raise
:class:`~repro.errors.ServeClientError` — callers catch
:class:`~repro.errors.ReproError` and are done.

The client is what the CLI verbs (``repro submit`` / ``repro jobs``),
the load harness, and the tests all use — there is exactly one encoder
for the wire format.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Mapping

from ..errors import (JobNotFoundError, QueueFullError, ServeClientError,
                      ServeProtocolError)

__all__ = ["ServeClient", "graph_payload"]

# repro: allow[seed-discipline] — transport jitter, not an experiment
# input: desynchronises concurrent pollers so they don't hammer the
# server in lockstep; job results are unaffected by the draw.
_POLL_JITTER = random.Random()


def graph_payload(graph) -> dict:
    """Serialise a :class:`~repro.core.hypergraph.Hypergraph` for the wire.

    Uses the CSR form — it round-trips exactly and is the cheapest to
    validate server-side.
    """
    ptr, pins = graph.csr()
    return {"csr": {"n": int(graph.n),
                    "ptr": [int(v) for v in ptr],
                    "pins": [int(v) for v in pins]}}


class ServeClient:
    """Thin blocking wrapper over the HTTP API."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Mapping | None = None) -> tuple[int, Any, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (1, 2):      # one retry on a stale keep-alive
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
                resp_headers = {k.lower(): v for k, v in
                                resp.getheaders()}
                break
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if attempt == 2:
                    raise ServeClientError(
                        f"cannot reach server at {self.host}:{self.port}"
                        f": {exc}") from exc
        ctype = resp_headers.get("content-type", "")
        if ctype.startswith("application/json"):
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError as exc:
                raise ServeClientError(
                    f"undecodable response body: {raw[:200]!r}") from exc
        else:
            decoded = raw.decode(errors="replace")
        return resp.status, decoded, resp_headers

    def _checked(self, method: str, path: str,
                 body: Mapping | None = None) -> Any:
        status, decoded, headers = self._request(method, path, body)
        return self._raise_for_status(status, decoded, headers, method,
                                      path)

    def _raise_for_status(self, status: int, decoded: Any, headers: dict,
                          method: str, path: str) -> Any:
        if status in (200, 202):
            return decoded
        error = (decoded.get("error", "") if isinstance(decoded, dict)
                 else str(decoded))
        if status == 429:
            retry_after = float(headers.get("retry-after", 1))
            exc = QueueFullError(error or "server shedding load")
            exc.retry_after_s = retry_after
            raise exc
        if status == 404:
            raise JobNotFoundError(error or f"not found: {path}")
        if status == 400:
            raise ServeProtocolError(error or "bad request")
        raise ServeClientError(f"HTTP {status} on {method} {path}: "
                               f"{error or decoded}")

    # ------------------------------------------------------------------
    # API verbs
    # ------------------------------------------------------------------
    def partition(self, request: Mapping) -> dict:
        """Synchronous solve (server still enforces the deadline)."""
        return self._checked("POST", "/v1/partition", request)

    def submit(self, request: Mapping) -> dict:
        """Asynchronous submit; returns the job handle immediately."""
        return self._checked("POST", "/v1/jobs", request)

    def stream(self, request: Mapping, graph=None, *, n: int | None = None,
               ptr=None, pins=None, chunk_bytes: int = 1 << 20) -> dict:
        """Upload a CSR graph via the binary ``POST /v1/stream`` path.

        ``request`` carries every job field *except* the graph; pass
        either a :class:`~repro.core.hypergraph.Hypergraph` or the raw
        ``(n, ptr, pins)`` arrays.  The body streams over the same
        keep-alive connection as everything else (chunked client-side;
        the server writes it straight into the graph's arrays), and the
        usual stale-socket retry applies — the encoder is re-run per
        attempt, so a reconnect resends a complete frame.
        """
        from .stream import STREAM_CONTENT_TYPE, encode_stream
        if graph is not None:
            ptr, pins = graph.csr()
            n = graph.n
        if n is None or ptr is None or pins is None:
            raise ServeClientError(
                "stream() needs a graph or explicit n/ptr/pins")
        for attempt in (1, 2):      # one retry on a stale keep-alive
            chunks, total, _digest = encode_stream(
                request, n=n, ptr=ptr, pins=pins, chunk_bytes=chunk_bytes)
            conn = self._connection()
            try:
                conn.putrequest("POST", "/v1/stream")
                conn.putheader("Content-Type", STREAM_CONTENT_TYPE)
                conn.putheader("Content-Length", str(total))
                conn.endheaders()
                for chunk in chunks:
                    conn.send(chunk)
                resp = conn.getresponse()
                raw = resp.read()
                headers = {k.lower(): v for k, v in resp.getheaders()}
                break
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if attempt == 2:
                    raise ServeClientError(
                        f"cannot stream to {self.host}:{self.port}: "
                        f"{exc}") from exc
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError as exc:
            raise ServeClientError(
                f"undecodable response body: {raw[:200]!r}") from exc
        return self._raise_for_status(resp.status, decoded, headers,
                                      "POST", "/v1/stream")

    def job(self, job_id: str) -> dict:
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._checked("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._checked("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout_s: float = 60.0,
             poll_s: float = 0.05, max_poll_s: float = 1.0) -> dict:
        """Poll until the job reaches a final status.

        The poll interval starts at ``poll_s`` and backs off
        exponentially (jittered, capped at ``max_poll_s``) so long jobs
        aren't hammered at the short-job cadence; the final sleep is
        clipped to the remaining deadline budget.
        """
        end = time.monotonic() + timeout_s
        delay = poll_s
        while True:
            state = self.job(job_id)
            if state["status"] in ("done", "error", "timeout",
                                   "cancelled"):
                return state
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    f"job {job_id} still {state['status']!r} after "
                    f"{timeout_s:g}s")
            jitter = 0.75 + 0.5 * _POLL_JITTER.random()
            # This client is the *synchronous* transport — blocking here
            # is its contract; the serving layer's coroutines never call
            # into it.
            time.sleep(min(delay * jitter, remaining))  # repro: allow[async-blocking] — sync client, not event-loop code
            delay = min(delay * 2.0, max_poll_s)

    def health(self) -> dict:
        return self._checked("GET", "/healthz")

    def metrics_text(self) -> str:
        """Raw Prometheus exposition from ``/metrics``."""
        return self._checked("GET", "/metrics")
