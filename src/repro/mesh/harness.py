"""In-process mesh bring-up shared by the test suite and the bench.

Mirrors ``tests/serve/conftest.ServerThread``: the router's event loop
runs in a private daemon thread and is driven over real sockets by the
blocking :class:`~repro.serve.client.ServeClient` — the full stack
(router HTTP, hedging, relay, shard subprocesses) is exercised, nothing
is mocked.  :func:`mesh_up` is the one bring-up path, so the chaos
harness in ``benchmarks/bench_mesh.py`` and the kill/restart tests see
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

__all__ = ["MeshHandle", "RouterThread", "mesh_up"]


class RouterThread:
    """Run one Router inside a private event loop thread."""

    def __init__(self, config: MeshConfig) -> None:
        self.router = Router(config)
        self.loop = asyncio.new_event_loop()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._stop_evt: asyncio.Event | None = None
        self._failure: BaseException | None = None

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def run() -> None:
            try:
                await self.router.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self._stop_evt = asyncio.Event()
            self._ready.set()
            await self._stop_evt.wait()  # analyze: allow(serve-timeout) — thread-lifetime wait; stop() sets it from the owning thread
            await self.router.stop()

        try:
            self.loop.run_until_complete(run())
        finally:
            self.loop.close()
            self._stopped.set()

    def start(self) -> "RouterThread":
        self._ready = threading.Event()
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("router failed to start within 15s")
        if self._failure is not None:
            raise self._failure
        return self

    @property
    def port(self) -> int:
        assert self.router.port is not None
        return self.router.port

    def stop(self) -> None:
        if self._stop_evt is not None:
            self.loop.call_soon_threadsafe(self._stop_evt.set)
        self._stopped.wait(timeout=15)


@dataclass
class MeshHandle:
    """Everything a caller needs to drive (and abuse) a running mesh."""

    supervisor: ShardSupervisor
    router_thread: RouterThread

    @property
    def router(self) -> Router:
        return self.router_thread.router

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
    router_thread: RouterThread | None = None
    try:
        specs = supervisor.start()
        config = MeshConfig(shards=specs, hedge=hedge,
                            hedge_min_s=hedge_min_s,
                            hedge_max_s=hedge_max_s,
                            probe_interval_s=probe_interval_s,
                            client_timeout_s=client_timeout_s)
        router_thread = RouterThread(config).start()
        handle = MeshHandle(supervisor=supervisor,
                            router_thread=router_thread)
        yield handle
    finally:
        if router_thread is not None:
            with contextlib.suppress(Exception):
                router_thread.stop()
        supervisor.stop_all()
