"""Shard subprocess supervision: spawn, SIGKILL, restart-in-place.

Each shard is a real ``repro serve`` process (own interpreter, own
worker pool) bound to ``127.0.0.1`` on an ephemeral port and pointed at
the mesh's *shared* cache root — the property the whole failover story
rests on.  The supervisor parses each shard's machine-readable ready
line (``repro serve listening on 127.0.0.1:<port>``) to learn the bound
port, keeps draining stderr afterwards (a full pipe would wedge the
child), and can SIGKILL a shard mid-batch and later restart it **on the
same port** so the router's ring and shard table never change — exactly
the crash/recover cycle the chaos harness and the kill/restart tests
drive.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from ..errors import MeshError

__all__ = ["ShardSpec", "ShardSupervisor"]

_READY_RE = re.compile(r"repro serve listening on ([\d.]+):(\d+)")
_STDERR_TAIL = 50
#: How long reaping a shard waits for its stderr to reach EOF.  A forked
#: batch worker of a SIGKILLed shard holds the pipe's write end until it
#: finishes its batch and exits.
_DRAIN_JOIN_S = 10.0


@dataclass(frozen=True)
class ShardSpec:
    """Identity + address of one shard, as the router sees it."""

    id: str
    host: str
    port: int


class _Child:
    """One spawned shard process plus its stderr drain thread."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.port: int | None = None
        self.ready = threading.Event()
        self.tail: deque[str] = deque(maxlen=_STDERR_TAIL)
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        with self.proc.stderr as pipe:      # the drain owns the pipe
            for raw in pipe:
                line = raw.decode(errors="replace").rstrip()
                self.tail.append(line)
                match = _READY_RE.search(line)
                if match:
                    self.port = int(match.group(2))
                    self.ready.set()
        self.ready.set()            # EOF: unblock waiters (port stays None)

    def reap(self) -> None:
        """Wait for the process to exit and its stderr pipe to close."""
        self.proc.wait(timeout=10)
        self._drain.join(_DRAIN_JOIN_S)


class ShardSupervisor:
    """Spawn and control N ``repro serve`` shard processes."""

    def __init__(self, count: int, cache_dir: str, *,
                 host: str = "127.0.0.1", workers: int = 1,
                 queue_limit: int = 4096, batch_window_s: float = 0.005,
                 slow: dict[str, float] | None = None,
                 ready_timeout_s: float = 30.0) -> None:
        if count < 1:
            raise MeshError("a mesh needs at least one shard")
        self.count = count
        self.cache_dir = str(cache_dir)
        self.host = host
        self.workers = workers
        self.queue_limit = queue_limit
        self.batch_window_s = batch_window_s
        #: per-shard-id injected worker slowdown in seconds (the
        #: manufactured slow shard for the hedging benchmark)
        self.slow = dict(slow or {})
        self.ready_timeout_s = ready_timeout_s
        self._children: dict[str, _Child] = {}
        self._ports: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[ShardSpec, ...]:
        """Spawn every shard; returns specs once all are accepting."""
        try:
            for i in range(self.count):
                sid = f"s{i}"
                self._children[sid] = self._spawn(sid, port=0)
                self._ports[sid] = self._await_ready(sid)
        except BaseException:
            self.stop_all()
            raise
        return self.specs()

    def specs(self) -> tuple[ShardSpec, ...]:
        return tuple(ShardSpec(sid, self.host, self._ports[sid])
                     for sid in sorted(self._ports))

    def pid(self, sid: str) -> int:
        return self._children[sid].proc.pid

    def alive(self, sid: str) -> bool:
        child = self._children.get(sid)
        return child is not None and child.proc.poll() is None

    def kill(self, sid: str) -> None:
        """SIGKILL a shard mid-flight (no graceful shutdown at all)."""
        child = self._children[sid]
        if child.proc.poll() is None:
            os.kill(child.proc.pid, signal.SIGKILL)
        child.reap()

    def restart(self, sid: str) -> ShardSpec:
        """Bring a killed shard back **on its original port**.

        Same port + same shard id means the router's static shard table
        keeps working: its probe loop just sees the shard come back.
        """
        if self.alive(sid):
            raise MeshError(f"shard {sid} is still running")
        self._children[sid].reap()
        self._children[sid] = self._spawn(sid, port=self._ports[sid])
        self._ports[sid] = self._await_ready(sid)
        return ShardSpec(sid, self.host, self._ports[sid])

    def stop_all(self) -> None:
        for child in self._children.values():
            if child.proc.poll() is None:
                child.proc.terminate()
        for child in self._children.values():
            try:
                child.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.kill(child.proc.pid, signal.SIGKILL)
            child.reap()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop_all()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self, sid: str, port: int) -> _Child:
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", self.host, "--port", str(port),
                "--workers", str(self.workers),
                "--queue-limit", str(self.queue_limit),
                "--batch-window", str(self.batch_window_s),
                "--cache-dir", self.cache_dir,
                "--shard-id", sid]
        slow_s = self.slow.get(sid, 0.0)
        if slow_s > 0:
            argv += ["--debug-slow-ms", str(int(round(slow_s * 1000)))]
        # the child must import the same repro package we are running
        # from, whether or not the caller exported PYTHONPATH
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=env)
        return _Child(proc)

    def _await_ready(self, sid: str) -> int:
        child = self._children[sid]
        if not child.ready.wait(self.ready_timeout_s) \
                or child.port is None:
            if child.proc.poll() is None:
                child.proc.kill()
            child.reap()
            tail = "\n".join(child.tail)
            raise MeshError(f"shard {sid} never reported ready; "
                            f"stderr tail:\n{tail}")
        return child.port
