"""TP/TN fixture pairs for the concurrency checks.

Every check gets at least one fixture that MUST fire and the remediated
twin that MUST stay clean: ``task-lifecycle`` (a fire-and-forget
``create_task``), a ``threading`` lock acquired on a coroutine path
(reported by ``async-blocking``), and the targets of
:mod:`repro.core.workers` spawners as ``fork-safety`` roots.

Plus the cross-cutting contracts: pragma suppression (and the
unused-pragma complaint when the pragma suppresses nothing) and
incremental-cache byte-identity — both the extract-time findings
replayed from ``path_findings`` and the check-stage ones recomputed
from cached call records.
"""

from __future__ import annotations

from pathlib import Path

from repro.analyze import analyze_paths
from repro.analyze.engine import run_analysis


def write(root: Path, rel: str, text: str) -> Path:
    p = root / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
    return p


def rules_of(findings) -> list[str]:
    return sorted(f.rule for f in findings)


class TestTaskLifecycle:
    FIRE_AND_FORGET = (            # PR 9 bug class: unsupervised task
        "import asyncio\n"
        "async def kick(coro):\n"
        "    asyncio.create_task(coro)\n")

    SUPERVISED_SET = (             # the batcher remediation
        "import asyncio\n"
        "tasks = set()\n"
        "async def kick(coro):\n"
        "    t = asyncio.create_task(coro)\n"
        "    tasks.add(t)\n"
        "    t.add_done_callback(tasks.discard)\n")

    def test_fire_and_forget_fires(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/mod.py",
                                  self.FIRE_AND_FORGET)])
        assert rules_of(fs) == ["task-lifecycle"]
        assert fs[0].line == 3
        assert "fire-and-forget" in fs[0].message

    def test_supervised_set_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.SUPERVISED_SET)
        assert analyze_paths([p]) == []

    def test_abandoning_path_fires_with_witness(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "async def race(coro, flag):\n"
                  "    t = asyncio.create_task(coro)\n"
                  "    if flag:\n"
                  "        return None\n"      # t leaks on this path
                  "    return await t\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["task-lifecycle"]
        f = fs[0]
        assert f.line == 3                     # anchored at the spawn
        assert "witness:" in f.message
        assert f.flow and f.flow[0][1] == 3    # flow starts at the spawn

    def test_cancel_on_abandon_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "async def race(coro, flag):\n"
                  "    t = asyncio.create_task(coro)\n"
                  "    if flag:\n"
                  "        t.cancel()\n"
                  "        return None\n"
                  "    return await t\n")
        assert analyze_paths([p]) == []

    def test_unsupervised_attr_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "class Loop:\n"
                  "    def start(self):\n"
                  "        self._task = asyncio.ensure_future(run())\n"
                  "async def run():\n"
                  "    pass\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["task-lifecycle"]
        assert "self._task" in fs[0].message

    def test_attr_cancelled_in_stop_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "class Loop:\n"
                  "    def start(self):\n"
                  "        self._task = asyncio.ensure_future(run())\n"
                  "    def stop(self):\n"
                  "        self._task.cancel()\n"
                  "async def run():\n"
                  "    pass\n")
        assert analyze_paths([p]) == []

    def test_attr_checked_on_its_own_class_of_a_shared_name(self, tmp_path):
        # two classes named alike: each method is checked against the
        # class it is defined in, not the last class of that name
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "FLAG = True\n"
                  "if FLAG:\n"
                  "    class Loop:\n"
                  "        def start(self):\n"
                  "            self._task = asyncio.ensure_future(run())\n"
                  "else:\n"
                  "    class Loop:\n"
                  "        def start(self):\n"
                  "            self._task = asyncio.ensure_future(run())\n"
                  "        def stop(self):\n"
                  "            self._task.cancel()\n"
                  "async def run():\n"
                  "    pass\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["task-lifecycle"]
        assert fs[0].line == 6
        assert "self._task" in fs[0].message

    def test_tests_tree_is_out_of_scope(self, tmp_path):
        p = write(tmp_path, "tests/test_mod.py", self.FIRE_AND_FORGET)
        assert analyze_paths([p]) == []

    # a method is one scope: each finding in it is reported once
    def test_fire_and_forget_in_a_method_fires_once(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "class Svc:\n"
                  "    async def kick(self, coro):\n"
                  "        asyncio.create_task(coro)\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["task-lifecycle"]
        assert fs[0].line == 4
        assert "fire-and-forget" in fs[0].message

    def test_abandoning_path_in_a_method_fires_once(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "class Svc:\n"
                  "    async def race(self, coro, flag):\n"
                  "        t = asyncio.create_task(coro)\n"
                  "        if flag:\n"
                  "            return None\n"
                  "        return await t\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["task-lifecycle"]
        assert fs[0].line == 4
        assert "witness: spawn@4 -> exit" in fs[0].message


class TestLockDiscipline:
    """A sync lock on a coroutine path: ``with lock:`` is an acquire,
    which ``async-blocking`` reports like any other blocking call."""

    SYNC_ON_LOOP = (
        "import threading\n"
        "class Svc:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    async def handle(self):\n"
        "        with self._lock:\n"
        "            return 1\n")

    def test_sync_lock_on_coroutine_path_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/sim/mod.py", self.SYNC_ON_LOOP)
        fs = analyze_paths([p])
        assert rules_of(fs) == ["async-blocking"]
        assert "sync lock acquire" in fs[0].message
        assert "self._lock" in fs[0].message
        assert fs[0].line == 6

    def test_async_lock_on_coroutine_path_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/sim/mod.py",
                  "import asyncio\n"
                  "class Svc:\n"
                  "    def __init__(self):\n"
                  "        self._lock = asyncio.Lock()\n"
                  "    async def handle(self):\n"
                  "        async with self._lock:\n"
                  "            return 1\n")
        assert analyze_paths([p]) == []

    def test_sync_lock_off_coroutine_paths_is_clean(self, tmp_path):
        # same sync lock, but only a sync helper no coroutine calls
        # acquires it: executor-offloaded code has no call edge from
        # the loop and must stay exempt
        p = write(tmp_path, "src/repro/sim/mod.py",
                  "import threading\n"
                  "class Pool:\n"
                  "    def __init__(self):\n"
                  "        self._lock = threading.Lock()\n"
                  "    def grab(self):\n"
                  "        with self._lock:\n"
                  "            return 1\n"
                  "    async def tick(self):\n"
                  "        return 2\n")
        assert analyze_paths([p]) == []


class TestPrimitiveSpawns:
    """Targets of ``repro.core.workers`` spawners are worker entrypoints:
    fork-safety follows them, and a target touching its own pipe is
    fine (the primitive's bootstrap resets inherited signals first)."""

    def test_module_write_in_start_target_fires_fork_safety(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "from repro.core import workers\n"
                  "_SEEN = []\n"
                  "def child(x):\n"
                  "    _SEEN.append(x)\n"
                  "def spawn():\n"
                  "    return workers.start(child, 1)\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["fork-safety"]
        assert fs[0].line == 4
        assert "worker entrypoint 'repro.mod.child'" in fs[0].message

    def test_workers_target_touching_its_pipe_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "from repro.core.workers import Workers\n"
                  "def worker(conn):\n"
                  "    msg = conn.recv()\n"
                  "    conn.send(msg)\n"
                  "def spawn():\n"
                  "    pool = Workers(worker, 2)\n"
                  "    pool.close()\n")
        assert analyze_paths([p]) == []


class TestPragmaInteraction:
    def test_allow_pragma_suppresses_task_lifecycle(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "async def kick(coro):\n"
                  "    asyncio.create_task(coro)  "
                  "# repro: allow[task-lifecycle] — owned by caller's "
                  "TaskGroup\n")
        assert analyze_paths([p]) == []

    def test_unused_concurrency_pragma_is_flagged(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "async def kick(coro):\n"
                  "    t = asyncio.create_task(coro)\n"
                  "    return await t  "
                  "# repro: allow[task-lifecycle] — nothing to allow\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["unused-pragma"]
        assert "task-lifecycle" in fs[0].message


class TestIncrementalIdentity:
    """Concurrency findings replay byte-identically from the cache."""

    FILES = {
        # extract-time: task-lifecycle (path_findings replay)
        "src/repro/mod_task.py": TestTaskLifecycle.FIRE_AND_FORGET,
        # check-stage: a sync lock acquire from cached call records
        "src/repro/mesh/mod_lock.py": TestLockDiscipline.SYNC_ON_LOOP,
    }

    def plant(self, root: Path) -> Path:
        for rel, text in self.FILES.items():
            write(root, rel, text)
        return root / "src"

    def test_cold_warm_and_parallel_identical(self, tmp_path):
        src = self.plant(tmp_path)
        cache = tmp_path / "cache"
        cold = run_analysis([src])
        first = run_analysis([src], incremental=True, cache_dir=cache)
        second = run_analysis([src], incremental=True, cache_dir=cache)
        parallel = run_analysis([src], jobs=2)

        def rendered(report):
            return [f.render() for f in report.findings]

        assert second.extracted == 0 and second.reused == len(self.FILES)
        assert (rendered(cold) == rendered(first) == rendered(second)
                == rendered(parallel))
        got = {f.rule for f in cold.findings}
        assert got == {"task-lifecycle", "async-blocking"}
