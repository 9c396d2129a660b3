"""Worker signal isolation: killing a batch worker must not kill its shard.

A batch worker is fork-started from the shard's asyncio process, so it
inherits the parent's Python-level signal handlers and the event loop's
wakeup fd.  Before ``reset_inherited_signals`` the SIGTERM a worker
receives (batch reap, deadline kill, hedge cancel-the-loser) was routed
through that shared pipe into the *parent's* loop, which dutifully ran
its own SIGTERM callback and shut the shard down — a mesh shard would
half-die: listener closed, pooled keep-alive connections still answering
"queued" forever.  These tests pin the fix at both layers.

The reset itself used to leave a window: ``run_batch`` can SIGTERM a
worker it has just forked (every member already cached) before the
child reaches the reset.  The worker is therefore forked with the
inherited signals blocked and unblocks them only inside the reset.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from pathlib import Path

from repro.lab.cache import atomic_write_json
from repro.lab.executor import (INHERITED_SIGNALS, mp_context,
                                reset_inherited_signals)
from repro.mesh.harness import mesh_up
from repro.serve import parse_job_request
from repro.serve import pool
from repro.serve.pool import BatchMember, run_batch

from tests.mesh.test_router import req


def _worker_children(pid: int, deadline_s: float = 10.0) -> list[int]:
    """Poll /proc until ``pid`` has forked at least one child."""
    end = time.monotonic() + deadline_s
    path = f"/proc/{pid}/task/{pid}/children"
    while time.monotonic() < end:
        try:
            with open(path) as fh:
                kids = [int(tok) for tok in fh.read().split()]
        except OSError:
            kids = []
        if kids:
            return kids
        time.sleep(0.02)
    return []


def test_reset_inherited_signals_is_idempotent():
    # callable any number of times in the parent without side effects
    # on subsequent signal use (handlers restored to defaults only in
    # the worker; here we just assert it never raises)
    reset_inherited_signals()
    reset_inherited_signals()


def test_sigterm_to_live_worker_leaves_shard_serving(tmp_path):
    # the 1.2s injected worker delay keeps the worker alive long enough
    # to be signalled mid-solve, exactly like a hedge cancel-the-loser
    with mesh_up(1, str(tmp_path / "cache"), slow={"s0": 1.2},
                 hedge=False) as mesh:
        shard_pid = mesh.supervisor._children["s0"].proc.pid
        with mesh.client(timeout_s=30) as c:
            handle = c.submit(req(301, mode="async"))
            kids = _worker_children(shard_pid)
            assert kids, "shard never forked a batch worker"
            for kid in kids:
                os.kill(kid, signal.SIGTERM)
            # the killed worker's job must still reach a final status
            # (error/timeout is acceptable; silence is not)
            out = c.wait(handle["job_id"], timeout_s=30)
            assert out["status"] in ("done", "error", "timeout")
        # ... and the shard must still be serving: a fresh cache-miss
        # solve completes end to end through the same shard
        time.sleep(0.3)      # let the probe loop revive s0 if it
        #                      flapped while the worker died
        with mesh.client(timeout_s=30) as c:
            handle = c.submit(req(302, mode="async"))
            out = c.wait(handle["job_id"], timeout_s=30)
            assert out["status"] == "done"
            assert c.health()["status"] == "ok"


def _blocked() -> list[int]:
    return sorted(int(sig) for sig in
                  signal.pthread_sigmask(signal.SIG_BLOCK, []))


def _member(tmp_path: Path, key: str) -> BatchMember:
    job = parse_job_request({
        "op": "partition", "k": 2, "eps": 0.1, "algorithm": "greedy",
        "graph": {"generator": {"kind": "random", "n": 30, "seed": 3}},
        "seed": 1})
    return BatchMember(key=key, seed=job.seed, params=job.params,
                       outfile=tmp_path / f"{key}.json",
                       errfile=tmp_path / f"{key}.err", deadline_mono=None)


def _record_mask(payload: dict) -> None:
    """Stand-in batch target: report the signal mask it starts with."""
    for job in payload["jobs"]:
        atomic_write_json(Path(job["outfile"]),
                          {"values": {"blocked": _blocked()}})
    os._exit(0)


def _mask_after_reset(path: str) -> None:
    reset_inherited_signals()
    Path(path).write_text(json.dumps(_blocked()))


def test_batch_worker_starts_with_sigterm_blocked(tmp_path, monkeypatch):
    monkeypatch.setattr(pool, "_batch_main", _record_mask)
    member = _member(tmp_path, "m")
    outcomes = {}
    asyncio.run(asyncio.wait_for(run_batch(
        [member], on_outcome=lambda m, o: outcomes.__setitem__(m.key, o)),
        timeout=30))
    assert outcomes["m"].status == "ok"
    blocked = outcomes["m"].payload["values"]["blocked"]
    assert {int(sig) for sig in INHERITED_SIGNALS} <= set(blocked)
    # ... and the dispatching thread got its own mask back
    assert int(signal.SIGTERM) not in _blocked()


def test_reset_unblocks_inherited_signals(tmp_path):
    out = tmp_path / "mask.json"
    old = signal.pthread_sigmask(signal.SIG_BLOCK, INHERITED_SIGNALS)
    try:
        proc = mp_context().Process(target=_mask_after_reset,
                                    args=(str(out),))
        proc.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)
    proc.join(30)
    assert proc.exitcode == 0
    assert not {int(sig) for sig in INHERITED_SIGNALS} & set(
        json.loads(out.read_text()))


def test_cached_dispatches_never_signal_the_parent_loop(tmp_path):
    """Every member already cached: run_batch terminates each worker on
    its first sweep, racing the child's start-up.  The parent loop's
    SIGTERM handler must never hear about it."""
    fired: list[int] = []

    async def main() -> None:
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, fired.append, 1)
        try:
            for i in range(60):
                member = _member(tmp_path, f"c{i}")
                atomic_write_json(member.outfile, {"values": {"hit": i}})
                statuses: list[str] = []
                await run_batch([member], on_outcome=lambda m, o:
                                statuses.append(o.status))
                assert statuses == ["ok"]
            await asyncio.sleep(0.2)    # dispatch any stray wakeup byte
        finally:
            loop.remove_signal_handler(signal.SIGTERM)

    asyncio.run(asyncio.wait_for(main(), timeout=120))
    assert fired == []
