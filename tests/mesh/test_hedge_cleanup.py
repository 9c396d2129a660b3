"""Hedged-dispatch and shutdown task hygiene (no sockets).

Regression tests for the task-lifecycle dogfood fixes: every attempt
task spawned by ``_dispatch_hedged`` is cancelled (and its exception
retrieved) when the dispatch is abandoned — deadline, caller
cancellation, or both attempts failing — the probe loop survives
surprise exceptions instead of dying and leaving down shards down
forever, a health probe never queues behind data calls, and a shard
call that outlives the router's shutdown closes its own client.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import DeadlineExceededError, ServeClientError
from repro.mesh import MeshConfig, Router, ShardSpec


def _bare_router(count: int = 3, **overrides) -> Router:
    shards = tuple(ShardSpec(f"s{i}", "127.0.0.1", 1 + i)
                   for i in range(count))
    return Router(MeshConfig(shards=shards, **overrides))


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


class TestProbeExecutor:
    def test_probe_returns_while_data_calls_hold_every_io_thread(self):
        # a probe queued behind saturated data calls times out and marks
        # a live shard down; probes run on their own executor
        async def main():
            router = _bare_router(io_threads=4)
            release = threading.Event()
            held: list[str] = []

            def fake_request(method, path, body=None):
                if path != "/healthz":
                    held.append(path)
                    release.wait(30)
                return 200, {"path": path}, {}

            for pool in router._pools.values():
                pool.request = fake_request
            threads = max(4, router.config.io_threads)
            data = [asyncio.create_task(router._shard_call(
                        "s0", "POST", "/v1/jobs", {}, timeout_s=30.0))
                    for _ in range(threads)]
            try:
                while len(held) < threads:
                    await asyncio.sleep(0.005)
                status, payload, _ = await router._shard_call(
                    "s0", "GET", "/healthz", timeout_s=0.5, probe=True)
                assert (status, payload) == (200, {"path": "/healthz"})
                assert "s0" not in router._down
            finally:
                release.set()
                await asyncio.gather(*data, return_exceptions=True)
                await router.stop()
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


class TestRouterShutdownCleanup:
    def test_stop_cancels_probe_task_and_closes_executors(self):
        async def main():
            router = _bare_router()
            await router.start()
            probe = router._probe_task
            assert probe is not None and not probe.done()
            await router.stop()
            assert probe.cancelled() or probe.done()
            assert router._io._shutdown
            assert router._probe_io._shutdown
        asyncio.run(main())

    def test_call_finishing_after_close_closes_its_client(self,
                                                           monkeypatch):
        """A shard call still running when the router stops must not put
        its keep-alive client back into the closed pool."""
        from repro.mesh import router as router_mod

        started, release = threading.Event(), threading.Event()
        clients = []

        class FakeClient:
            def __init__(self, host, port, timeout_s):
                self.closed = False
                clients.append(self)

            def _request(self, method, path, body):
                started.set()
                release.wait(10)
                return 200, {}, {}

            def close(self):
                self.closed = True

        monkeypatch.setattr(router_mod, "ServeClient", FakeClient)
        pool = router_mod._ClientPool(ShardSpec("s0", "127.0.0.1", 1), 5.0)
        call = threading.Thread(target=pool.request, args=("GET", "/x"))
        call.start()
        assert started.wait(10)
        pool.close()
        release.set()
        call.join(10)
        assert [c.closed for c in clients] == [True]
        assert pool._idle == []
