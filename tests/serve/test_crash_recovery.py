"""Crash recovery: results written before a server kill survive it.

The server is SIGKILLed the moment the worker's atomic result file
lands in the shared cache — before any client ever read the result.  A
restarted server answering the identical request must return it as a
cache hit, not recompute.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

REQ = {"op": "partition",
       "graph": {"generator": {"kind": "random", "n": 300, "k": 4,
                               "seed": 42}},
       "k": 4, "eps": 0.1, "algorithm": "multilevel", "seed": 7,
       "deadline_s": 60.0}

_READY_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


def start_server(cache_dir: Path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--batch-window", "0.001"],
        env=env, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        m = _READY_RE.search(line or "")
        if m:
            return proc, int(m.group(1))
        if proc.poll() is not None:
            break
    stop(proc, signal.SIGKILL)
    pytest.fail("server subprocess never reported a listening port")


def stop(proc: subprocess.Popen, sig: int) -> int:
    """Signal the server, reap it, and close its stderr pipe."""
    proc.send_signal(sig)
    try:
        return proc.wait(timeout=15)
    finally:
        proc.stderr.close()


def wait_for_cache_entry(cache_dir: Path, timeout_s: float = 30) -> Path:
    """Block until some complete result file exists in the cache."""
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        for p in cache_dir.rglob("*.json"):
            try:
                payload = json.loads(p.read_text())
            except ValueError:
                continue            # torn read: mid-replace
            if "values" in payload:
                return p
        time.sleep(0.01)
    pytest.fail("no cache entry appeared within the timeout")


def test_kill_mid_job_then_restart_serves_from_cache(tmp_path):
    cache = tmp_path / "cache"
    proc, port = start_server(cache)
    try:
        with ServeClient("127.0.0.1", port, timeout_s=10) as c:
            c.submit(REQ)           # async: client never sees the result
        entry = wait_for_cache_entry(cache)
    finally:
        # SIGKILL: no graceful shutdown, no response ever sent
        stop(proc, signal.SIGKILL)

    mtime_before = entry.stat().st_mtime_ns
    proc2, port2 = start_server(cache)
    try:
        with ServeClient("127.0.0.1", port2, timeout_s=10) as c:
            t0 = time.perf_counter()
            out = c.partition({**REQ, "mode": "sync"})
            elapsed = time.perf_counter() - t0
    finally:
        stop(proc2, signal.SIGTERM)

    assert out["status"] == "done"
    assert out["cached"] is True, "restart must answer from the cache"
    assert "labels" in out["result"]
    # served without recomputation: entry untouched, answer near-instant
    assert entry.stat().st_mtime_ns == mtime_before
    assert elapsed < 2.0


def test_sigterm_is_a_clean_shutdown(tmp_path):
    proc, port = start_server(tmp_path / "cache")
    with ServeClient("127.0.0.1", port, timeout_s=10) as c:
        assert c.health()["status"] == "ok"
    assert stop(proc, signal.SIGTERM) == 0
