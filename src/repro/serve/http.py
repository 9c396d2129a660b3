"""The one HTTP/1.1 layer of the single-shard server and the mesh router.

:func:`handle_connection` is the connection loop of both and
:func:`serve_forever` their signal loop; the router also reads its
shards' replies with :func:`read_response`.  Framing rule: only
``Content-Length`` bodies are read, so a request carrying
``Transfer-Encoding`` gets a 501, and a body the loop will not read (a
malformed, negative or oversized length, an abandoned stream) closes
the connection after the error reply: its bytes are never parsed as
the next request.  Head and body reads are split so the ``/v1/stream``
handler can consume a large binary body incrementally.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Callable

from ..errors import DeadlineExceededError, QueueFullError, ReproError
from .jobs import with_deadline
from .metrics import Metrics

__all__ = [
    "HttpError",
    "MAX_BODY",
    "REASONS",
    "handle_connection",
    "read_body",
    "read_head",
    "read_response",
    "serve_forever",
    "write_response",
]

#: Per-read deadline while parsing a request head or framed body.
HEADER_DEADLINE_S = 30.0

#: Largest request body a shard or the router accepts.
MAX_BODY = 64 * 1024 * 1024

REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed",
           408: "Request Timeout", 411: "Length Required",
           413: "Payload Too Large", 429: "Too Many Requests",
           500: "Internal Server Error", 501: "Not Implemented",
           502: "Bad Gateway", 503: "Service Unavailable",
           504: "Gateway Timeout"}


class HttpError(ReproError):
    """Carries an HTTP status (and optional headers) through handlers.

    ``close=True`` marks errors after which the connection framing is
    unrecoverable (e.g. an abandoned half-read binary body): the
    response is sent and the connection closed.
    """

    def __init__(self, status: int, message: str,
                 headers: dict | None = None, *,
                 close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.close = close


async def read_head(reader: asyncio.StreamReader,
                    deadline_s: float = HEADER_DEADLINE_S,
                    ) -> tuple[str, str, dict[str, str]] | None:
    """Parse one request line + headers; None on EOF; HttpError on garbage."""
    line = await with_deadline(reader.readline(), deadline_s)
    if not line:
        return None
    try:
        method, target, _version = line.decode("ascii").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers = await _read_headers(reader, deadline_s)
    return method.upper(), target, headers


async def _read_headers(reader: asyncio.StreamReader,
                        deadline_s: float) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        raw = await with_deadline(reader.readline(), deadline_s)
        if raw in (b"\r\n", b"\n", b""):
            return headers
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "undecodable header") from None
        key = name.strip().lower()
        headers[key] = (value.strip().lower() if key == "connection"
                        else value.strip())


def content_length(headers: dict[str, str], *,
                   max_body: int) -> int | None:
    """Validated Content-Length (None when absent).

    Each error closes the connection: the body it announces is never
    read, so its bytes must not be parsed as the next request.
    """
    length = headers.get("content-length")
    if length is None:
        return None
    try:
        n = int(length)
    except ValueError:
        raise HttpError(400, "bad Content-Length", close=True) from None
    if n < 0:
        raise HttpError(400, "negative Content-Length", close=True)
    if n > max_body:
        raise HttpError(413, f"body of {n} bytes exceeds the "
                             f"{max_body} byte limit", close=True)
    return n


async def read_body(reader: asyncio.StreamReader, headers: dict[str, str],
                    *, max_body: int,
                    deadline_s: float = HEADER_DEADLINE_S) -> bytes:
    """Read a whole Content-Length-framed body into memory."""
    n = content_length(headers, max_body=max_body)
    if not n:
        return b""
    return await with_deadline(reader.readexactly(n), deadline_s)


async def read_response(reader: asyncio.StreamReader,
                        deadline_s: float = HEADER_DEADLINE_S,
                        ) -> tuple[int, dict[str, str], bytes]:
    """Parse one HTTP response (status, headers, body) from a peer.

    Used by the mesh router for every call to a shard.  Responses
    without a Content-Length are treated as framing errors — this
    project's servers always send one.
    """
    line = await with_deadline(reader.readline(), deadline_s)
    if not line:
        raise HttpError(502, "peer closed the connection mid-response")
    try:
        _version, status_text = line.decode("ascii").split(None, 2)[:2]
        status = int(status_text)
    except (ValueError, IndexError):
        raise HttpError(502, "malformed response status line") from None
    headers = await _read_headers(reader, deadline_s)
    n = content_length(headers, max_body=MAX_BODY)
    if n is None:
        raise HttpError(502, "peer response lacks Content-Length")
    body = (await with_deadline(reader.readexactly(n), deadline_s)
            if n else b"")
    return status, headers, body


async def write_response(writer: asyncio.StreamWriter, status: int,
                         payload: dict, extra: dict | None = None,
                         keep_alive: bool = True) -> None:
    """Serialise and send one response (``_raw`` = preformatted text)."""
    if "_raw" in payload:           # /metrics: Prometheus text format
        body = payload["_raw"].encode()
        ctype = "text/plain; version=0.0.4"
    else:
        body = json.dumps(payload).encode()
        ctype = "application/json"
    reason = REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    head.extend(f"{k}: {v}" for k, v in (extra or {}).items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()


async def handle_connection(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter, *,
                            route: Callable, stream: Callable,
                            metrics: Metrics, statuses: tuple) -> None:
    """Serve one keep-alive connection until EOF, idle timeout or close.

    ``route(method, target, body)`` answers all but ``POST /v1/stream``,
    which goes to ``stream(reader, headers)`` with its body unread.  An
    exception that is no ``HttpError`` takes the status of its first
    ``(classes, status)`` pair in ``statuses``; with none, the
    connection closes unanswered.
    """
    metrics.inc("http_connections")
    try:
        while True:
            try:
                head = await read_head(reader)
            except DeadlineExceededError:
                break           # idle keep-alive connection: hang up
            except HttpError as exc:
                await write_response(writer, exc.status,
                                     {"error": str(exc)}, exc.headers,
                                     keep_alive=False)
                break
            if head is None:
                break           # clean EOF between requests
            method, target, headers = head
            metrics.inc("http_requests")
            keep_alive = headers.get("connection", "") != "close"
            try:
                if "transfer-encoding" in headers:
                    raise HttpError(501, "Transfer-Encoding is not "
                                         "supported; send Content-Length",
                                    close=True)
                if (method == "POST"
                        and target.split("?", 1)[0] == "/v1/stream"):
                    status, payload, extra = await stream(  # analyze: allow(serve-timeout) — the app's stream handler; its own awaits are bounded and checked where it is defined
                        reader, headers)
                else:
                    body = await read_body(reader, headers,
                                           max_body=MAX_BODY)
                    status, payload, extra = await route(  # analyze: allow(serve-timeout) — the app's route handler; its own awaits are bounded and checked where it is defined
                        method, target, body)
            except HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
                extra = exc.headers
                keep_alive = keep_alive and not exc.close
            except Exception as exc:
                status = next((code for types, code in statuses
                               if isinstance(exc, types)), None)
                if status is None:
                    raise
                payload, extra = {"error": str(exc)}, {}
                if isinstance(exc, QueueFullError):
                    metrics.inc("http_429")
                    extra = {"Retry-After":
                             str(getattr(exc, "retry_after_s", 1))}
            await write_response(writer, status, payload, extra,
                                 keep_alive)
            if not keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-exchange; nothing to answer
    except Exception:  # analyze: allow(silent-except) — one broken connection must never take down the accept loop; the request is already journalled
        pass
    finally:
        try:
            writer.close()
            await with_deadline(writer.wait_closed(), 2.0)
        except (Exception, DeadlineExceededError):  # analyze: allow(silent-except) — socket teardown race; the fd is closed either way
            pass


async def serve_forever(app, name: str) -> None:
    """Start ``app``, run until SIGTERM/SIGINT, then stop it gracefully."""
    await app.start()
    # machine-parseable ready line (tests and scripts bind port 0)
    print(f"{name} listening on {app.config.host}:{app.port}",
          file=sys.stderr, flush=True)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_event.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal support in the loop
    try:
        await stop_event.wait()  # analyze: allow(serve-timeout) — the process-lifetime wait; bounding it would mean a server that exits on a timer
    finally:
        await app.stop()
