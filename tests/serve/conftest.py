"""Shared harness: a real Server on an ephemeral port in a thread.

The event loop runs in a daemon thread (:class:`repro.mesh.harness.
LoopThread`); tests drive it through the blocking
:class:`repro.serve.ServeClient` exactly like an external process
would — the full HTTP stack is exercised, nothing is mocked.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.mesh.harness import LoopThread
from repro.serve import ServeConfig, Server


@pytest.fixture
def serve_factory(tmp_path):
    """Yields a function starting servers; all are stopped at teardown."""
    started: list[LoopThread] = []

    def factory(**overrides) -> LoopThread:
        kwargs = dict(host="127.0.0.1", port=0,
                      cache_dir=str(tmp_path / "cache"),
                      batch_window_s=0.005, workers=2)
        kwargs.update(overrides)
        st = LoopThread(Server(ServeConfig(**kwargs))).start()
        started.append(st)
        return st

    yield factory
    for st in started:
        with contextlib.suppress(Exception):
            st.stop()
