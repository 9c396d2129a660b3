"""In-process mesh bring-up shared by the test suite and the bench.

:class:`LoopThread` runs one app — a :class:`~repro.mesh.router.Router`
or a :class:`~repro.serve.server.Server` — in a private event loop in a
daemon thread, driven over real sockets by the blocking
:class:`~repro.serve.client.ServeClient`: the full stack (HTTP,
hedging, relay, shard subprocesses) is exercised, nothing is mocked.
:func:`mesh_up` is the one bring-up path, so the chaos harness in
``benchmarks/bench_mesh.py`` and the kill/restart tests see
byte-for-byte the same topology.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator

from ..serve.client import ServeClient
from .router import MeshConfig, Router
from .shards import ShardSupervisor

__all__ = ["LoopThread", "MeshHandle", "mesh_up"]


class LoopThread:
    """Run one app (async ``start``/``stop``, a ``port``) in a thread."""

    def __init__(self, app) -> None:
        self.app = app
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._stop_evt: asyncio.Event | None = None
        self._failure: BaseException | None = None

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def run() -> None:
            try:
                await self.app.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self._stop_evt = asyncio.Event()
            self._ready.set()
            await self._stop_evt.wait()  # analyze: allow(serve-timeout) — thread-lifetime wait; stop() sets it from the owning thread
            await self.app.stop()

        try:
            self.loop.run_until_complete(run())
        finally:
            self.loop.close()
            self._stopped.set()

    def start(self) -> "LoopThread":
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("app failed to start within 15s")
        if self._failure is not None:
            raise self._failure
        return self

    @property
    def port(self) -> int:
        assert self.app.port is not None
        return self.app.port

    def stop(self) -> None:
        if self._stop_evt is not None:
            self.loop.call_soon_threadsafe(self._stop_evt.set)
        self._stopped.wait(timeout=15)


@dataclass
class MeshHandle:
    """Everything a caller needs to drive (and abuse) a running mesh."""

    supervisor: ShardSupervisor
    router_thread: LoopThread

    @property
    def router(self) -> Router:
        return self.router_thread.app

    @property
    def port(self) -> int:
        return self.router_thread.port

    def client(self, timeout_s: float = 60.0) -> ServeClient:
        """Blocking client pointed at the router (not at any shard)."""
        return ServeClient("127.0.0.1", self.port, timeout_s=timeout_s)


@contextlib.contextmanager
def mesh_up(count: int, cache_dir: str, *,
            workers: int = 1, slow: dict[str, float] | None = None,
            hedge: bool = True, hedge_min_s: float = 0.05,
            hedge_max_s: float = 1.0, probe_interval_s: float = 0.1,
            queue_limit: int = 4096, client_timeout_s: float = 120.0,
            ) -> Iterator[MeshHandle]:
    """Spawn ``count`` shard processes + one in-process router."""
    supervisor = ShardSupervisor(count, cache_dir, workers=workers,
                                 queue_limit=queue_limit, slow=slow)
    router_thread: LoopThread | None = None
    try:
        specs = supervisor.start()
        config = MeshConfig(shards=specs, hedge=hedge,
                            hedge_min_s=hedge_min_s,
                            hedge_max_s=hedge_max_s,
                            probe_interval_s=probe_interval_s,
                            client_timeout_s=client_timeout_s)
        router_thread = LoopThread(Router(config)).start()
        handle = MeshHandle(supervisor=supervisor,
                            router_thread=router_thread)
        yield handle
    finally:
        if router_thread is not None:
            with contextlib.suppress(Exception):
                router_thread.stop()
        supervisor.stop_all()
