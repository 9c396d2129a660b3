"""Binary CSR streaming: wire codec, frame head reader, ingest.

The JSON graph specs in :mod:`repro.serve.protocol` materialise every
pin as a Python ``int`` twice (client ``json.dumps``, server
``json.loads`` + per-int validation) — at 10^6 pins that is seconds of
pure serialisation before a worker sees the graph.  ``POST /v1/stream``
replaces that path: the client sends the CSR arrays as length-prefixed
raw ``int64`` chunks and the server writes them *directly into two
preallocated numpy arrays* as they arrive off the socket.  The job then
holds the graph built over those arrays, and the forked batch worker
inherits it; no JSON, no Python-int round trip, no second copy of the
pin list anywhere.

Wire format (one HTTP request body, ``Content-Length``-framed)::

    magic   b"RMSH1\n"
    header  u32 LE length, then JSON:
              {"request": {...job fields, no "graph"...},
               "csr": {"n": int, "m": int, "pins": int},
               "digest": "<sha256 hex of ptr bytes || pin bytes>"}
    chunks  repeated: u8 kind (0 = ptr, 1 = pins),
                      u64 LE payload bytes,
                      raw little-endian int64 data
            (all ptr chunks first, then all pin chunks; chunk
            boundaries are arbitrary — the digest is over the logical
            array bytes, so it is chunking-independent)

:func:`read_stream_head` reads and checks everything up to the first
chunk; the shard (:func:`ingest_stream`) and the mesh router (which
forwards the bytes it read to the ring owner) both use it.

Cache identity: the canonical graph spec is
``{"stream": {"digest", "n", "m", "pins"}}`` — content-addressed like
every other spec, so a repeat upload (or a later JSON poll of the same
key) is a cache hit on any shard.  The parsed graph itself is
transport state, never part of the key; the job manager keeps a few
recent ones under ``"csr:<digest>"``, so a re-upload of a resident
graph is hashed but not stored again.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from ..core.hypergraph import Hypergraph
from ..errors import InvalidHypergraphError, ServeProtocolError
from .http import MAX_BODY, HttpError, content_length
from .jobs import with_deadline
from .protocol import MAX_PINS, JobRequest, parse_job_request

__all__ = [
    "StreamFrame",
    "csr_digest",
    "encode_stream",
    "ingest_stream",
    "read_stream_head",
    "request_from_header",
]

MAGIC = b"RMSH1\n"
STREAM_CONTENT_TYPE = "application/x-repro-stream"
CHUNK_PTR = 0
CHUNK_PINS = 1

_HEADER_MAX_BYTES = 1 << 20
READ_DEADLINE_S = 30.0


# ---------------------------------------------------------------------------
# Codec (client side; also used by the mesh router to peek at headers)
# ---------------------------------------------------------------------------

def csr_digest(ptr: np.ndarray, pins: np.ndarray) -> str:
    """sha256 over the logical array bytes (ptr first, then pins)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(pins, dtype=np.int64).tobytes())
    return h.hexdigest()


def stream_graph_spec(digest: str, n: int, m: int, pins: int) -> dict:
    """The canonical (cache-keyed) graph spec for a streamed CSR."""
    return {"stream": {"digest": digest, "n": int(n), "m": int(m),
                       "pins": int(pins)}}


def encode_stream(request: Mapping[str, Any], *, n: int,
                  ptr: np.ndarray, pins: np.ndarray,
                  chunk_bytes: int = 1 << 20,
                  ) -> tuple[Iterator[bytes], int, str]:
    """Frame a job request + CSR arrays for ``POST /v1/stream``.

    Returns ``(chunk iterator, total body length, digest)`` — the
    length is exact so the caller can send a correct ``Content-Length``
    before the iterator runs.  ``request`` carries everything a JSON
    submit would except the graph.
    """
    if "graph" in request:
        raise ServeProtocolError(
            "stream requests carry the graph as binary chunks; "
            "remove 'graph' from the request object")
    ptr_a = np.ascontiguousarray(ptr, dtype=np.int64)
    pins_a = np.ascontiguousarray(pins, dtype=np.int64)
    digest = csr_digest(ptr_a, pins_a)
    header = {"request": dict(request),
              "csr": {"n": int(n), "m": int(len(ptr_a)) - 1,
                      "pins": int(len(pins_a))},
              "digest": digest}
    hjson = json.dumps(header, sort_keys=True).encode()
    chunk_bytes = max(8, int(chunk_bytes))

    def spans(nbytes: int) -> list[tuple[int, int]]:
        return [(off, min(off + chunk_bytes, nbytes))
                for off in range(0, nbytes, chunk_bytes)]

    total = len(MAGIC) + 4 + len(hjson)
    for arr in (ptr_a, pins_a):
        total += sum(9 + (hi - lo) for lo, hi in spans(arr.nbytes))

    def gen() -> Iterator[bytes]:
        yield MAGIC + struct.pack("<I", len(hjson)) + hjson
        for kind, arr in ((CHUNK_PTR, ptr_a), (CHUNK_PINS, pins_a)):
            raw = arr.tobytes()
            for lo, hi in spans(len(raw)):
                yield struct.pack("<BQ", kind, hi - lo) + raw[lo:hi]

    return gen(), total, digest


def request_from_header(header: Mapping[str, Any]) -> JobRequest:
    """Validate a stream frame header into a :class:`JobRequest`.

    Shared by the shard (ingest) and the router (routing key): both
    must derive the *same* cache key from the same header bytes.  A
    node, edge or pin count over ``MAX_PINS`` is a 413 before anything
    is allocated.
    """
    if not isinstance(header, Mapping):
        raise ServeProtocolError("stream header must be a JSON object")
    csr = header.get("csr")
    if not isinstance(csr, Mapping):
        raise ServeProtocolError("stream header needs a 'csr' object")
    dims = {}
    for field in ("n", "m", "pins"):
        v = csr.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ServeProtocolError(
                f"stream header 'csr.{field}' must be a non-negative "
                f"integer, got {v!r}")
        dims[field] = v
    for field, v in dims.items():
        if v > MAX_PINS:
            raise HttpError(413, f"stream header 'csr.{field}' = {v} "
                                 f"exceeds the server limit of {MAX_PINS}",
                            close=True)
    digest = header.get("digest")
    if (not isinstance(digest, str) or len(digest) != 64
            or any(c not in "0123456789abcdef" for c in digest)):
        raise ServeProtocolError(
            "stream header 'digest' must be 64 lowercase hex chars")
    req = header.get("request", {})
    if not isinstance(req, Mapping):
        raise ServeProtocolError("stream header 'request' must be an object")
    if "graph" in req:
        raise ServeProtocolError(
            "stream header 'request' must not contain 'graph'")
    obj = dict(req)
    obj["graph"] = stream_graph_spec(digest, dims["n"], dims["m"],
                                     dims["pins"])
    return parse_job_request(obj)


# ---------------------------------------------------------------------------
# Frame head (shard ingest and router relay)
# ---------------------------------------------------------------------------

@dataclass
class StreamFrame:
    """One ``/v1/stream`` body whose head has been read and checked."""

    reader: Any
    total: int                      # Content-Length
    consumed: int = 0
    head: bytes = b""               # magic, header length and header
    header: Any = None
    request: JobRequest | None = None

    async def take(self, n: int) -> bytes:
        """Read ``n`` more body bytes within the Content-Length."""
        self.consumed += n
        if self.consumed > self.total:
            raise HttpError(400, "stream frame exceeds Content-Length",
                            close=True)
        return await with_deadline(self.reader.readexactly(n),
                                   READ_DEADLINE_S)


async def read_stream_head(reader, headers: Mapping[str, str]
                           ) -> StreamFrame:
    """Read a stream body up to its first chunk and check the head.

    Every failure is an ``HttpError(close=True)``: the connection's
    byte position is unrecoverable once a body is abandoned half-read.
    """
    total = content_length(headers, max_body=MAX_BODY)
    if total is None:
        raise HttpError(411, "stream requests need a Content-Length",
                        close=True)
    frame = StreamFrame(reader, total)
    magic = await frame.take(len(MAGIC))
    if magic != MAGIC:
        raise HttpError(400, "bad stream magic (expected RMSH1)",
                        close=True)
    raw_len = await frame.take(4)
    (hlen,) = struct.unpack("<I", raw_len)
    if hlen > _HEADER_MAX_BYTES:
        raise HttpError(400, "stream header too large", close=True)
    raw_header = await frame.take(hlen)
    try:
        frame.header = json.loads(raw_header)
    except ValueError:
        raise HttpError(400, "stream header is not valid JSON",
                        close=True) from None
    try:
        frame.request = request_from_header(frame.header)
    except ServeProtocolError as exc:
        raise HttpError(400, str(exc), close=True) from exc
    frame.head = magic + raw_len + raw_header
    return frame


# ---------------------------------------------------------------------------
# Server-side ingest
# ---------------------------------------------------------------------------

async def ingest_stream(reader, headers: Mapping[str, str], *,
                        manager, metrics):
    """Consume one ``/v1/stream`` body; return the submitted Job.

    The body is read incrementally: array chunks go straight into the
    graph's arrays (or only into the digest check when the manager
    already holds the graph).  Framing violations close the connection;
    errors after the full body was consumed keep it alive.
    """
    frame = await read_stream_head(reader, headers)
    spec = frame.request.params["graph"]["stream"]
    n, m, pins = spec["n"], spec["m"], spec["pins"]
    ref = f"csr:{spec['digest']}"
    graph = manager.cached_graph(ref)
    arrays = None
    if graph is None:
        arrays = {CHUNK_PTR: np.empty(m + 1, dtype=np.int64),
                  CHUNK_PINS: np.empty(pins, dtype=np.int64)}
    await _consume_chunks(frame, arrays, m=m, pins=pins,
                          digest=spec["digest"])
    if frame.consumed != frame.total:
        raise HttpError(400, "trailing bytes after stream frame",
                        close=True)
    if graph is None:
        ptr, pin_arr = arrays[CHUNK_PTR], arrays[CHUNK_PINS]
        _validate_csr(ptr, pin_arr, n=n, pins=pins)
        try:
            graph = Hypergraph.from_csr(n, ptr, pin_arr, copy=False)
        except InvalidHypergraphError as exc:
            raise HttpError(400, f"stream CSR rejected: {exc}") from exc
        manager.cache_graph(ref, graph)
    else:
        metrics.inc("stream_graph_reuse")
    metrics.inc("stream_ingests")
    metrics.inc("stream_bytes", by=float(frame.total))
    return manager.submit(frame.request, graph=graph)


async def _consume_chunks(frame: StreamFrame, arrays: dict | None, *,
                          m: int, pins: int, digest: str) -> None:
    """Read the chunk sequence, hashing (and storing, if ``arrays``)."""
    need = {CHUNK_PTR: (m + 1) * 8, CHUNK_PINS: pins * 8}
    got = {CHUNK_PTR: 0, CHUNK_PINS: 0}
    dests = ({kind: arr.view(np.uint8) for kind, arr in arrays.items()}
             if arrays is not None else {})
    hasher = hashlib.sha256()
    while got[CHUNK_PTR] < need[CHUNK_PTR] or got[CHUNK_PINS] < need[CHUNK_PINS]:
        head = await frame.take(9)
        kind, nbytes = struct.unpack("<BQ", head)
        if kind not in (CHUNK_PTR, CHUNK_PINS):
            raise HttpError(400, f"unknown stream chunk kind {kind}",
                            close=True)
        if kind == CHUNK_PINS and got[CHUNK_PTR] < need[CHUNK_PTR]:
            raise HttpError(400, "pin chunk before ptr array complete",
                            close=True)
        if nbytes == 0 or got[kind] + nbytes > need[kind]:
            raise HttpError(400, "stream chunk overruns its array",
                            close=True)
        data = await frame.take(int(nbytes))
        hasher.update(data)
        if dests:
            lo = got[kind]
            dests[kind][lo:lo + len(data)] = np.frombuffer(data,
                                                           dtype=np.uint8)
        got[kind] += len(data)
    if hasher.hexdigest() != digest:
        # full body consumed: framing is intact, keep the connection
        raise HttpError(400, "stream digest mismatch: payload does not "
                             "match the header's content address")


def _validate_csr(ptr: np.ndarray, pin_arr: np.ndarray, *, n: int,
                  pins: int) -> None:
    """Structural CSR checks on the filled arrays (vectorised)."""
    if int(ptr[0]) != 0 or int(ptr[-1]) != pins:
        raise HttpError(400, "stream ptr must start at 0 and end at the "
                             "pin count")
    if len(ptr) > 1 and bool(np.any(np.diff(ptr) < 0)):
        raise HttpError(400, "stream ptr must be nondecreasing")
    if pins and (int(pin_arr.min()) < 0 or int(pin_arr.max()) >= n):
        raise HttpError(400, f"stream pin out of range 0..{n - 1}")
