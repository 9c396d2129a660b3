"""Shared HTTP/1.1 framing for the serving and mesh layers.

One implementation of the wire subset this project speaks —
``Content-Length``-framed requests and responses, keep-alive
connections, no chunked encoding — used by both the single-shard
server (:mod:`repro.serve.server`) and the mesh router
(:mod:`repro.mesh.router`), which additionally acts as an HTTP
*client* towards its shards and therefore needs the response-side
reader too.

Head and body reads are split so a handler can consume a large binary
body incrementally (the ``/v1/stream`` ingest path) instead of
materialising it; :func:`read_body` is the buffering default for JSON
routes.
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ReproError
from .jobs import with_deadline

__all__ = [
    "HttpError",
    "MAX_BODY",
    "REASONS",
    "read_body",
    "read_head",
    "read_response",
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
           500: "Internal Server Error", 502: "Bad Gateway",
           503: "Service Unavailable", 504: "Gateway Timeout"}


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
    """Validated Content-Length (None when absent)."""
    length = headers.get("content-length")
    if length is None:
        return None
    try:
        n = int(length)
    except ValueError:
        raise HttpError(400, "bad Content-Length") from None
    if n < 0:
        raise HttpError(400, "negative Content-Length")
    if n > max_body:
        raise HttpError(413, f"body of {n} bytes exceeds the "
                             f"{max_body} byte limit")
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

    Used by the mesh router when relaying a streamed upload to a shard
    over a raw asyncio connection.  Responses without a Content-Length
    are treated as framing errors — this project's servers always send
    one.
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
    n = content_length(headers, max_body=64 * 1024 * 1024)
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
