"""Hedged dispatch, shard transport and shutdown hygiene.

Regression tests for the task-lifecycle dogfood fixes: every attempt
task spawned by ``_dispatch_hedged`` is cancelled (and its exception
retrieved) when the dispatch is abandoned — deadline, caller
cancellation, or both attempts failing — and the probe loop survives
surprise exceptions instead of dying and leaving down shards down
forever.  The transport tests run the router's shard calls against
:class:`FakeShard`, an asyncio server inside the test: a health probe
never waits behind data calls, a cancelled hedge loser hangs up on its
shard, a stale keep-alive connection is retried once, and a connection
that outlives the router's shutdown is closed, not pooled.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import DeadlineExceededError, ServeClientError
from repro.mesh import MeshConfig, Router, ShardSpec
from repro.serve.http import MAX_BODY, read_body, read_head, write_response
from repro.serve.jobs import with_deadline


def _bare_router(count: int = 3, **overrides) -> Router:
    shards = tuple(ShardSpec(f"s{i}", "127.0.0.1", 1 + i)
                   for i in range(count))
    return Router(MeshConfig(shards=shards, **overrides))


class FakeShard:
    """An asyncio HTTP server standing in for a shard.

    ``GET /healthz`` is answered at once.  Every other request is
    answered at once too, unless ``hang`` (never answered: the handler
    waits for the router to hang up) or ``release`` (answered once the
    event is set).  ``close_after_reply`` ends each connection after
    one reply, which still says keep-alive.  ``connections`` counts the
    connections opened, ``held`` the requests left unanswered, ``eofs``
    the connections the router closed, ``closed`` the ones that ended.
    """

    def __init__(self, *, hang: bool = False,
                 release: asyncio.Event | None = None,
                 close_after_reply: bool = False) -> None:
        self.hang = hang
        self.release = release
        self.close_after_reply = close_after_reply
        self.connections = self.held = self.eofs = self.closed = 0

    async def start(self) -> "FakeShard":
        self._server = await asyncio.start_server(self._serve,
                                                  "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer) -> None:
        self.connections += 1
        try:
            while (head := await read_head(reader)) is not None:
                _method, path, headers = head
                await read_body(reader, headers, max_body=MAX_BODY)
                if path != "/healthz" and (self.hang or self.release):
                    self.held += 1
                    if self.hang:
                        await reader.read()     # returns at EOF
                        break
                    await self.release.wait()
                await write_response(writer, 200, {"path": path})
                if self.close_after_reply:
                    return
            self.eofs += 1
        finally:
            self.closed += 1
            writer.close()


def _router_for(*fakes: FakeShard, **overrides) -> Router:
    shards = tuple(ShardSpec(f"s{i}", "127.0.0.1", fake.port)
                   for i, fake in enumerate(fakes))
    return Router(MeshConfig(shards=shards, **overrides))


async def _until(predicate, timeout_s: float = 5.0) -> None:
    """Wait until ``predicate()`` holds; DeadlineExceededError after."""
    async def poll() -> None:
        while not predicate():
            await asyncio.sleep(0.005)
    await with_deadline(poll(), timeout_s)


class _SlowCalls:
    """Fake ``_shard_call`` that hangs until cancelled, recording both."""

    def __init__(self):
        self.started: list[str] = []
        self.cancelled: list[str] = []

    async def __call__(self, sid, method, path, payload=None, **kw):
        self.started.append(sid)
        try:
            await asyncio.sleep(30)
        except asyncio.CancelledError:
            self.cancelled.append(sid)
            raise
        raise AssertionError("unreachable")


class TestHedgeCleanup:
    def test_deadline_on_unhedged_path_cancels_primary(self):
        async def main():
            router = _bare_router(hedge=False, client_timeout_s=0.05)
            calls = _SlowCalls()
            router._shard_call = calls
            with pytest.raises(DeadlineExceededError):
                await router._dispatch_hedged("s0", None, {})
            await asyncio.sleep(0)      # let the cancellation land
            assert calls.started == ["s0"]
            assert calls.cancelled == ["s0"]
        asyncio.run(main())

    def test_cancelling_dispatch_cancels_both_attempts(self):
        async def main():
            router = _bare_router(hedge=True, hedge_min_s=0.01,
                                  hedge_max_s=0.01, client_timeout_s=30.0)
            calls = _SlowCalls()
            router._shard_call = calls
            dispatch = asyncio.create_task(
                router._dispatch_hedged("s0", "s1", {}))
            while len(calls.started) < 2:   # primary + hedge in flight
                await asyncio.sleep(0.005)
            dispatch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await dispatch
            await asyncio.sleep(0)
            assert sorted(calls.cancelled) == ["s0", "s1"]
        asyncio.run(main())

    def test_overall_deadline_mid_hedge_cancels_both(self):
        async def main():
            router = _bare_router(hedge=True, hedge_min_s=0.01,
                                  hedge_max_s=0.01, client_timeout_s=0.1)
            calls = _SlowCalls()
            router._shard_call = calls
            with pytest.raises(DeadlineExceededError):
                await router._dispatch_hedged("s0", "s1", {})
            await asyncio.sleep(0)
            assert sorted(calls.started) == ["s0", "s1"]
            assert sorted(calls.cancelled) == ["s0", "s1"]
        asyncio.run(main())

    def test_both_failed_surfaces_primary_error(self):
        async def main():
            router = _bare_router(hedge=True, hedge_min_s=0.01,
                                  hedge_max_s=0.01, client_timeout_s=5.0)

            async def failing(sid, method, path, payload=None, **kw):
                await asyncio.sleep(0.02)
                raise ServeClientError(f"{sid} exploded")

            router._shard_call = failing
            with pytest.raises(ServeClientError, match="s0 exploded"):
                await router._dispatch_hedged("s0", "s1", {})
            assert router.metrics.counters["hedge_both_failed"] == 1
        asyncio.run(main())

    def test_loser_is_cancelled_when_winner_returns(self):
        async def main():
            router = _bare_router(hedge=True, hedge_min_s=0.01,
                                  hedge_max_s=0.01, client_timeout_s=5.0)
            cancelled: list[str] = []

            async def racing(sid, method, path, payload=None, **kw):
                try:
                    await asyncio.sleep(30 if sid == "s0" else 0.02)
                except asyncio.CancelledError:
                    cancelled.append(sid)
                    raise
                return 200, {"winner": sid}, {}

            router._shard_call = racing
            status, payload, _ = await router._dispatch_hedged(
                "s0", "s1", {})
            assert status == 200 and payload == {"winner": "s1"}
            await asyncio.sleep(0)
            assert cancelled == ["s0"]
            assert router.metrics.counters["hedge_cancelled"] == 1
        asyncio.run(main())

    def test_cancelled_loser_hangs_up_on_its_shard(self):
        async def main():
            slow = await FakeShard(hang=True).start()
            fast = await FakeShard().start()
            router = _router_for(slow, fast, hedge=True, hedge_min_s=0.01,
                                 hedge_max_s=0.01, client_timeout_s=30.0)
            status, payload, _ = await router._dispatch_hedged(
                "s0", "s1", {})
            assert (status, payload) == (200, {"path": "/v1/partition"})
            assert router.metrics.counters["hedge_cancelled"] == 1
            await _until(lambda: slow.eofs == 1)
            await router.stop()
            await slow.stop()
            await fast.stop()
        asyncio.run(main())


class TestProbeIsolation:
    def test_probe_returns_while_data_calls_hang(self):
        # a probe queued behind hung data calls times out and marks a
        # live shard down; no call waits for another
        async def main():
            shard = await FakeShard(hang=True).start()
            router = _router_for(shard)
            data = [asyncio.create_task(router._shard_call(
                        "s0", "POST", "/v1/jobs", {}, timeout_s=30.0))
                    for _ in range(32)]
            try:
                await _until(lambda: shard.held == 32)
                status, payload, _ = await router._shard_call(
                    "s0", "GET", "/healthz", timeout_s=0.5)
                assert (status, payload) == (200, {"path": "/healthz"})
                assert "s0" not in router._down
            finally:
                for task in data:
                    task.cancel()
                await asyncio.gather(*data, return_exceptions=True)
                await router.stop()
                await shard.stop()
        asyncio.run(main())


class TestProbeLoopResilience:
    def test_probe_loop_survives_surprise_exception(self):
        async def main():
            router = _bare_router(probe_interval_s=0.01)
            router._down.add("s0")

            async def broken(sid, method, path, payload=None, **kw):
                raise RuntimeError("not a ReproError")

            router._shard_call = broken
            task = asyncio.create_task(router._probe_loop())
            for _ in range(200):
                await asyncio.sleep(0.005)
                if router.metrics.counters.get("probe_loop_errors", 0) >= 2:
                    break
            assert not task.done()      # the loop survived both beats
            assert router.metrics.counters["probe_loop_errors"] >= 2
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        asyncio.run(main())


class TestTransport:
    def test_pooled_connection_closed_by_the_shard_is_retried(self):
        async def main():
            shard = await FakeShard(close_after_reply=True).start()
            router = _router_for(shard)
            assert (await router._shard_call("s0", "GET", "/x"))[0] == 200
            assert len(router._idle["s0"]) == 1    # the reply said keep-alive
            await _until(lambda: shard.closed == 1)
            status, payload, _ = await router._shard_call("s0", "GET", "/y")
            assert (status, payload) == (200, {"path": "/y"})
            assert shard.connections == 2 and "s0" not in router._down
            await router.stop()
            await shard.stop()
        asyncio.run(main())

    def test_refused_connection_marks_the_shard_down(self):
        async def main():
            router = _bare_router()         # nothing listens on port 1
            with pytest.raises(OSError):
                await router._shard_call("s0", "GET", "/healthz",
                                         timeout_s=2.0)
            assert router._down == {"s0"}
        asyncio.run(main())


class TestRouterShutdownCleanup:
    def test_stop_ends_probe_and_idle_connections(self):
        async def main():
            shard = await FakeShard().start()
            router = _router_for(shard)
            await router.start()
            probe = router._probe_task
            assert probe is not None and not probe.done()
            for path in ("/x", "/y"):
                assert (await router._shard_call("s0", "GET", path))[0] \
                    == 200
            assert shard.connections == 1 and len(router._idle["s0"]) == 1
            await router.stop()
            assert probe.cancelled() or probe.done()
            assert router._idle["s0"] == []
            await _until(lambda: shard.eofs == 1)
            await shard.stop()
        asyncio.run(main())

    def test_call_finishing_after_close_closes_its_client(self):
        """A shard call still running when the router stops must close
        its keep-alive connection instead of pooling it."""
        async def main():
            release = asyncio.Event()
            shard = await FakeShard(release=release).start()
            router = _router_for(shard)
            call = asyncio.create_task(
                router._shard_call("s0", "GET", "/x"))
            await _until(lambda: shard.held == 1)
            await router.stop()
            release.set()
            assert (await call)[0] == 200
            assert router._idle["s0"] == []
            await _until(lambda: shard.eofs == 1)
            await shard.stop()
        asyncio.run(main())
