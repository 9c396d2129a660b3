"""Streaming CSR ingestion: wire format, graph cache, frame heads, e2e.

The binary ``/v1/stream`` path exists so a million-pin hypergraph can
reach a worker without ever being JSON-materialised: the shard writes
chunks straight into the graph's arrays, the job holds the graph and
the forked batch worker inherits it.  These tests pin the wire format
(digest is chunking-independent), the job manager's bounded graph
cache, the rejection of malformed frame heads and of bodies the
connection loop will not read by the shard and the router alike, and
the end-to-end path against a real server.
"""

from __future__ import annotations

import asyncio
import gc
import glob
import json
import socket
import struct
import weakref

import numpy as np
import pytest

from repro.errors import ServeProtocolError
from repro.generators import streaming_uniform_hypergraph
from repro.mesh import MeshConfig, Router, ShardSpec
from repro.mesh.harness import LoopThread
from repro.serve import ServeClient, ServeConfig, Server, parse_job_request
from repro.serve.http import MAX_BODY
from repro.serve.jobs import _RETAIN_GRAPHS, JobManager, with_deadline
from repro.serve.protocol import MAX_PINS
from repro.serve.stream import (MAGIC, STREAM_CONTENT_TYPE, csr_digest,
                                encode_stream, stream_graph_spec)


def graph():
    return streaming_uniform_hypergraph(500, 900, 4, rng=11)


REQUEST = {"op": "partition", "k": 2, "eps": 0.1, "algorithm": "greedy",
           "seed": 5, "mode": "async", "deadline_s": 60.0}


class TestWireFormat:
    def test_total_is_exact_and_digest_chunking_independent(self):
        g = graph()
        ptr, pins = g.csr()
        frames = {}
        for chunk_bytes in (64, 4096, 1 << 20):
            chunks, total, digest = encode_stream(
                REQUEST, n=g.n, ptr=ptr, pins=pins,
                chunk_bytes=chunk_bytes)
            blob = b"".join(chunks)
            assert len(blob) == total
            frames[chunk_bytes] = (digest, blob)
        digests = {d for d, _ in frames.values()}
        assert digests == {csr_digest(ptr, pins)}
        # different chunking => different framing bytes, same digest
        assert frames[64][1] != frames[1 << 20][1]

    def test_request_with_inline_graph_is_rejected(self):
        g = graph()
        ptr, pins = g.csr()
        with pytest.raises(ServeProtocolError):
            encode_stream({**REQUEST, "graph": {"hgr": "x"}},
                          n=g.n, ptr=ptr, pins=pins)

    def test_stream_spec_is_a_valid_graph_form(self):
        from repro.serve.protocol import parse_job_request
        spec = stream_graph_spec("ab" * 32, 10, 5, 20)
        r = parse_job_request({**REQUEST, "graph": spec})
        assert r.params["graph"]["stream"]["pins"] == 20


class TestGraphCache:
    """The job manager's parsed-graph cache: bounded, LRU, and never the
    only thing keeping an in-flight job's graph alive."""

    @staticmethod
    def _request(g):
        ptr, pins = g.csr()
        return parse_job_request({
            **REQUEST, "graph": stream_graph_spec(
                csr_digest(ptr, pins), g.n, g.num_edges, len(pins))})

    def test_bound_and_lru_eviction(self):
        async def main():
            mgr = JobManager(cache=None)
            graphs = [streaming_uniform_hypergraph(20, 10, 3, rng=i)
                      for i in range(_RETAIN_GRAPHS + 2)]
            for i, g in enumerate(graphs):
                mgr.cache_graph(f"csr:{i}", g)
            assert len(mgr._graphs) == _RETAIN_GRAPHS
            assert mgr.cached_graph("csr:0") is None     # least recent
            assert mgr.cached_graph("csr:1") is None
            assert mgr.cached_graph("csr:2") is graphs[2]  # now most recent
            mgr.cache_graph("csr:new", graph())
            assert mgr.cached_graph("csr:2") is graphs[2]
            assert mgr.cached_graph("csr:3") is None
            assert len(mgr._graphs) == _RETAIN_GRAPHS
            await mgr.stop()
        asyncio.run(main())

    def test_in_flight_job_keeps_its_graph_past_eviction(self):
        g = graph()

        async def main():
            mgr = JobManager(cache=None, workers=1, debug_slow_s=0.5)
            mgr.start()
            try:
                mgr.cache_graph("csr:mine", g)
                job = mgr.submit(self._request(g), graph=g)
                while job.status == "queued":
                    await asyncio.sleep(0.01)
                assert job.status == "running"
                for i in range(_RETAIN_GRAPHS):
                    mgr.cache_graph(f"csr:{i}", graph())
                assert mgr.cached_graph("csr:mine") is None
                assert job.graph is g
                await with_deadline(asyncio.shield(job.future), 60.0)
            finally:
                await mgr.stop()
            assert job.status == "done", job.error
            assert job.result["n"] == g.n and job.result["pins"] == g.num_pins
        asyncio.run(main())

    def test_resolved_job_no_longer_holds_its_graph(self):
        async def main():
            mgr = JobManager(cache=None, workers=1)
            mgr.start()
            g = graph()
            ref = weakref.ref(g)
            try:
                job = mgr.submit(self._request(g), graph=g)
                del g
                await with_deadline(asyncio.shield(job.future), 60.0)
            finally:
                await mgr.stop()
            assert job.status == "done" and mgr.jobs[job.id] is job
            assert job.graph is None
            gc.collect()
            assert ref() is None
        asyncio.run(main())


def shm_names() -> set[str]:
    return set(glob.glob("/dev/shm/repro*"))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    st = LoopThread(Server(ServeConfig(
        host="127.0.0.1", port=0,
        cache_dir=str(tmp_path_factory.mktemp("cache")),
        batch_window_s=0.005, workers=1)))
    st.start()
    yield st
    st.stop()


class TestEndToEnd:
    def test_stream_solves_and_matches_inline_result(self, server):
        g = graph()
        before = shm_names()
        counters = server.app.metrics.counters
        with ServeClient("127.0.0.1", server.port, timeout_s=60) as c:
            handle = c.stream(REQUEST, graph=g)
            done = handle if handle["status"] == "done" \
                else c.wait(handle["job_id"], timeout_s=60)
            assert done["status"] == "done"
            labels = done["result"]["labels"]
            assert len(labels) == g.n

            # same graph as inline CSR upload: identical result
            from repro.serve.client import graph_payload
            inline = c.partition({**REQUEST, "mode": "sync",
                                  "graph": graph_payload(g)})
            assert inline["result"]["labels"] == labels

            # re-streaming the same graph: the resident graph is hashed
            # against, not stored again, and the result is a cache hit
            ptr, pins = g.csr()
            ref = f"csr:{csr_digest(ptr, pins)}"
            resident = server.app.manager.cached_graph(ref)
            reused = counters.get("stream_graph_reuse", 0)
            again = c.stream(REQUEST, graph=g)
            assert again.get("cached"), again
            assert counters["stream_graph_reuse"] == reused + 1
            assert server.app.manager.cached_graph(ref) is resident

            # resubmitting by content address alone is a cache hit
            spec = stream_graph_spec(csr_digest(ptr, pins), g.n,
                                     g.num_edges, len(pins))
            by_ref = c.partition({**REQUEST, "mode": "sync",
                                  "graph": spec})
            assert by_ref.get("cached") and \
                by_ref["result"]["labels"] == labels

            # an uncached content address is an explicit re-upload error
            with pytest.raises(ServeProtocolError,
                               match="re-upload"):
                c.partition({**REQUEST, "mode": "sync",
                             "graph": stream_graph_spec("ff" * 32,
                                                        10, 5, 20)})
        # the graph never left the server's heap
        assert shm_names() == before

    def test_digest_mismatch_is_rejected(self, server):
        g = graph()
        ptr, pins = g.csr()
        import http.client
        header = {"request": REQUEST,
                  "csr": {"n": int(g.n), "m": int(g.num_edges),
                          "pins": int(len(pins))},
                  "digest": "00" * 32}     # wrong on purpose
        hdr = json.dumps(header).encode()
        body = MAGIC + len(hdr).to_bytes(4, "little") + hdr
        ptr64 = np.asarray(ptr, dtype="<i8").tobytes()
        pins64 = np.asarray(pins, dtype="<i8").tobytes()
        body += bytes([0]) + len(ptr64).to_bytes(8, "little") + ptr64
        body += bytes([1]) + len(pins64).to_bytes(8, "little") + pins64
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/stream", body=body,
                         headers={"Content-Type": STREAM_CONTENT_TYPE,
                                  "Content-Length": str(len(body))})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert "digest" in payload["error"]
        finally:
            conn.close()

    def test_unnormalised_csr_is_rejected_at_ingest(self, server):
        """Edge pins out of order fail the graph's own CSR check in the
        server: a 400, and nothing is cached or admitted."""
        graphs = dict(server.app.manager._graphs)
        with ServeClient("127.0.0.1", server.port, timeout_s=30) as c:
            with pytest.raises(ServeProtocolError, match="unnormalised"):
                c.stream(REQUEST, n=4, ptr=np.array([0, 2, 4]),
                         pins=np.array([2, 1, 0, 3]))
        assert server.app.manager._graphs == graphs

    def test_keep_alive_reuses_one_connection(self, server):
        """submit + polls + health all ride a single TCP connection."""
        before = server.app.metrics.counters.get("http_connections", 0)
        with ServeClient("127.0.0.1", server.port, timeout_s=30) as c:
            req = {"op": "partition",
                   "graph": {"generator": {"kind": "random", "n": 40,
                                           "seed": 1}},
                   "k": 2, "eps": 0.1, "algorithm": "greedy", "seed": 1,
                   "mode": "async", "deadline_s": 30.0}
            handle = c.submit(req)
            c.wait(handle["job_id"], timeout_s=30)
            c.health()
            c.metrics_text()
        after = server.app.metrics.counters.get("http_connections", 0)
        assert after - before == 1


def _head(header: dict) -> bytes:
    raw = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(raw)) + raw


GOOD_HEADER = {"request": REQUEST, "csr": {"n": 4, "m": 1, "pins": 2},
               "digest": "ab" * 32}
STREAM = "/v1/stream"

#: (id, path, header line or None, body or None, status).  Without a
#: header line a body gets its own Content-Length, and None sends none.
#: Each body ends where the reader stops, so the reply is never lost to
#: a reset.
MALFORMED_HEADS = [
    ("no-content-length", STREAM, None, None, 411),
    ("bad-magic", STREAM, None, b"RMSH0\n", 400),
    ("header-over-1MiB", STREAM, None,
     MAGIC + struct.pack("<I", (1 << 20) + 1), 400),
    ("header-not-json", STREAM, None,
     MAGIC + struct.pack("<I", 9) + b"{not json", 400),
    ("header-rejected", STREAM, None,
     _head({**GOOD_HEADER, "digest": "xyz"}), 400),
    ("frame-past-content-length", STREAM, None,
     MAGIC + struct.pack("<I", 64), 400),
    ("pins-over-MAX_PINS", STREAM, None,
     _head({**GOOD_HEADER, "csr": {"n": 4, "m": 1, "pins": MAX_PINS + 1}}),
     413),
    ("n-over-MAX_PINS", STREAM, None,
     _head({**GOOD_HEADER, "csr": {"n": MAX_PINS + 1, "m": 1, "pins": 2}}),
     413),
    ("m-over-MAX_PINS", STREAM, None,
     _head({**GOOD_HEADER, "csr": {"n": 4, "m": MAX_PINS + 1, "pins": 2}}),
     413),
] + [
    # bodies the connection loop will not read: none is sent, and the
    # connection must close rather than wait for them
    (f"{name}-{path.rsplit('/', 1)[1]}", path, header, None, status)
    for path in ("/v1/partition", STREAM)
    for name, header, status in (
        ("content-length-abc", "Content-Length: abc", 400),
        ("content-length-negative", "Content-Length: -5", 400),
        ("content-length-over-MAX_BODY",
         f"Content-Length: {MAX_BODY + 1}", 413),
        ("transfer-encoding-chunked", "Transfer-Encoding: chunked", 501),
    )
]


def _post(port: int, path: str, header: str | None,
          body: bytes | None) -> tuple[int, bool]:
    """(status, whether the peer closed the connection after replying)."""
    head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Content-Type: {STREAM_CONTENT_TYPE}\r\n")
    if header is not None:
        head += f"{header}\r\n"
    elif body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode() + b"\r\n" + (body or b""))
        reply = b""
        closed = False
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    closed = True
                    break
                reply += chunk
        except socket.timeout:
            pass                        # kept alive: no EOF within 10 s
    return int(reply.split(b" ", 2)[1]), closed


@pytest.fixture(scope="module")
def router(server):
    rt = LoopThread(Router(MeshConfig(
        shards=(ShardSpec("s0", "127.0.0.1", server.port),)))).start()
    yield rt
    rt.stop()


class TestMalformedHead:
    """Shard and router read the frame head with one function and run
    one connection loop, so each malformed head or unread body gets the
    same status from both, and a closed connection: the rest of the
    body is never read, nor parsed as the next request."""

    @pytest.mark.parametrize("path,header,body,status",
                             [c[1:] for c in MALFORMED_HEADS],
                             ids=[c[0] for c in MALFORMED_HEADS])
    def test_shard_rejects_and_closes(self, server, path, header, body,
                                      status):
        before = shm_names()
        graphs = dict(server.app.manager._graphs)
        assert _post(server.port, path, header, body) == (status, True)
        assert server.app.manager._graphs == graphs
        assert shm_names() == before

    @pytest.mark.parametrize("path,header,body,status",
                             [c[1:] for c in MALFORMED_HEADS],
                             ids=[c[0] for c in MALFORMED_HEADS])
    def test_router_rejects_and_closes(self, router, path, header, body,
                                       status):
        relays = router.app.metrics.counters.get("stream_relays", 0)
        assert _post(router.port, path, header, body) == (status, True)
        assert router.app.metrics.counters.get("stream_relays",
                                               0) == relays


class TestOversizedNodeCount:
    """A JSON graph whose node count alone would exhaust a worker's
    memory is a 400 at admission, from the shard and through the
    router, before any array is sized by it."""

    REQ = {**REQUEST, "mode": "sync",
           "graph": {"n": 2**63, "edges": [[0, 1]]}}

    @pytest.mark.parametrize("via", ["server", "router"])
    def test_rejected_at_admission(self, request, via):
        port = request.getfixturevalue(via).port
        with ServeClient("127.0.0.1", port, timeout_s=30) as c:
            with pytest.raises(ServeProtocolError, match="graph.n"):
                c.partition(self.REQ)

    @pytest.mark.parametrize("via", ["server", "router"])
    def test_hgr_header_rejected_at_admission(self, request, via):
        port = request.getfixturevalue(via).port
        req = {**self.REQ, "graph": {"hgr": "1 10000000000\n1 2\n"}}
        with ServeClient("127.0.0.1", port, timeout_s=30) as c:
            with pytest.raises(ServeProtocolError, match="graph.hgr"):
                c.partition(req)
