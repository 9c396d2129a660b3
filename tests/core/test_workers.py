"""The worker-process primitive: signals, pipe ends, ordering, reaping.

Every process ``src/`` starts goes through :mod:`repro.core.workers`;
the structural test at the end keeps it that way.
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import workers
from repro.core.workers import INHERITED_SIGNALS, fork_map
from repro.errors import WorkerPoolError

SRC = Path(__file__).resolve().parents[2] / "src"


def _blocked() -> list[int]:
    return sorted(int(sig) for sig in
                  signal.pthread_sigmask(signal.SIG_BLOCK, []))


def _write_mask(path: str) -> None:
    Path(path).write_text(json.dumps(_blocked()))


def record_born_mask(path: Path, monkeypatch) -> None:
    """Make every worker write its signal mask to ``path`` just before
    its reset (the primitive resets before any target runs)."""
    real = workers.reset_inherited_signals

    def recording() -> None:
        path.write_text(json.dumps(_blocked()))
        real()

    monkeypatch.setattr(workers, "reset_inherited_signals", recording)


def test_child_is_born_with_inherited_signals_blocked(tmp_path, monkeypatch):
    born = tmp_path / "born.json"
    record_born_mask(born, monkeypatch)
    after = tmp_path / "after.json"
    proc = workers.start(_write_mask, str(after))
    proc.join(30)
    assert proc.exitcode == 0
    workers.stop(proc)
    inherited = {int(sig) for sig in INHERITED_SIGNALS}
    assert inherited <= set(json.loads(born.read_text()))
    assert not inherited & set(json.loads(after.read_text()))
    # ... and the forking thread got its own mask back
    assert int(signal.SIGTERM) not in _blocked()


def _sleep(s: float) -> None:
    time.sleep(s)


def test_stop_leaves_no_zombie():
    proc = workers.start(_sleep, 30.0)
    pid = proc.pid
    workers.stop(proc)
    with pytest.raises(ChildProcessError):     # already reaped
        os.waitpid(pid, os.WNOHANG)
    workers.stop(proc)                          # a second stop is harmless


def _children() -> set[str]:
    """Pids of this process's children (its resource tracker included)."""
    pid = os.getpid()
    return set(Path(f"/proc/{pid}/task/{pid}/children").read_text().split())


def _slow_square(x: int, delay_s: float) -> int:
    time.sleep(delay_s)
    return x * x


def _fail_on(x: int, bad: int) -> int:
    if x == bad:
        raise ValueError(f"item {x} failed")
    return x


class TestForkMap:
    def test_keeps_item_order_with_uneven_tasks(self):
        # early items are the slowest, so results arrive out of order
        items = [(i, 0.02 * (6 - i)) for i in range(6)]
        expected = [i * i for i in range(6)]
        assert fork_map(_slow_square, items, 3) == expected
        assert fork_map(_slow_square, items, 1) == expected

    def test_reraises_a_worker_exception(self):
        with pytest.raises(ValueError, match="item 3 failed"):
            fork_map(_fail_on, [(i, 3) for i in range(6)], 2)

    def test_ends_promptly_and_reaps_its_workers(self):
        # Workers leave on EOF.  A child that kept any inherited
        # parent-side end open would keep a sibling (or itself) blocked
        # in recv, and the map would sit out Workers' exit wait.
        before = _children()
        t0 = time.perf_counter()
        assert fork_map(_slow_square, [(i, 0.0) for i in range(8)], 4) \
            == [i * i for i in range(8)]
        assert time.perf_counter() - t0 < 0.5 * workers._EXIT_WAIT_S
        assert _children() <= before

    def test_runs_in_process_when_workers_cannot_start(self, monkeypatch):
        def refuse(*args):
            raise WorkerPoolError("no fork here")

        monkeypatch.setattr(workers, "start", refuse)
        assert fork_map(_slow_square, [(2, 0.0), (3, 0.0)], 2) == [4, 9]


_ORPHAN_SCRIPT = """\
import sys, time
from repro.core.workers import Workers

def wait_for_eof(conn):
    try:
        conn.recv()
    except EOFError:
        pass

outer = Workers(wait_for_eof, 1)
inner = Workers(wait_for_eof, 2)
print(" ".join(str(p.pid) for p in outer._procs + inner._procs), flush=True)
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def test_workers_see_eof_when_their_parent_is_killed(tmp_path):
    """SIGKILL the parent of two live pools; every worker must leave.

    A worker that kept its own or another pool's parent-side end open
    would never see EOF and would outlive its parent.
    """
    script = tmp_path / "pools.py"
    script.write_text(_ORPHAN_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, str(script)], env=env,
                            stdout=subprocess.PIPE, text=True)
    pids: list[int] = []
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 3
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        assert not [p for p in pids if _alive(p)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
        for pid in filter(_alive, pids):    # a failed run's survivors
            os.kill(pid, signal.SIGKILL)


def _spawning_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """Calls and imports that start a process without the primitive."""
    banned = {"Process", "ProcessPoolExecutor", "Pool"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, a.name) for a in node.names
                     if a.name in banned]
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", ""))
            base = (func.value.id if isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) else "")
            if name in banned or (base == "os" and name.startswith("fork")):
                hits.append((node.lineno, name))
    return hits


def test_only_core_workers_starts_processes():
    primitive = SRC / "repro" / "core" / "workers.py"
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == primitive:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{line} {name}"
                  for line, name in _spawning_calls(tree)]
    assert found == []
    assert _spawning_calls(ast.parse(primitive.read_text()))


def test_nothing_in_src_imports_concurrent_futures():
    """No executor pools: processes start in core.workers, and the mesh
    router calls its shards on its event loop."""
    users = sorted(str(path.relative_to(SRC))
                   for path in (SRC / "repro").rglob("*.py")
                   if "concurrent.futures" in _imported_modules(path))
    assert users == []


_SHM_MODULES = {"repro.core.shm", "multiprocessing.shared_memory"}


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (or imports from)."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]) \
                if node.level else []
            base = ".".join(base + ([node.module] if node.module else []))
            found.add(base)
            found |= {f"{base}.{alias.name}" for alias in node.names}
    return found


def test_only_the_round_pool_uses_shared_memory():
    """Serving hands graphs to forked workers as inherited objects;
    shared memory stays with the sub-round pool and its own module."""
    allowed = {SRC / "repro" / "core" / "shm.py",
               SRC / "repro" / "partitioners" / "subround.py"}
    users = {path for path in (SRC / "repro").rglob("*.py")
             if _imported_modules(path) & _SHM_MODULES}
    assert users == allowed
