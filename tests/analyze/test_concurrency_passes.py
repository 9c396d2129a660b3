"""TP/TN fixture pairs for the v4 concurrency passes.

Every pass gets at least one fixture that MUST fire and the remediated
twin that MUST stay clean.  The three PR 9 chaos-found bug classes are
each pinned as a true positive:

* a fork worker touching its pipe with inherited signal state
  (``fork-hygiene``),
* probe coroutines submitting to the data-path executor
  (``lock-discipline``),
* a fire-and-forget ``create_task`` (``task-lifecycle``).

Plus the cross-cutting contracts: pragma suppression (and the
unused-pragma complaint when the pragma suppresses nothing) and
incremental-cache byte-identity for concurrency findings — both the
extract-time ones replayed from ``path_findings`` and the check-stage
ones recomputed from cached ``concurrency`` facts.
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

    def test_tests_tree_is_out_of_scope(self, tmp_path):
        p = write(tmp_path, "tests/test_mod.py", self.FIRE_AND_FORGET)
        assert analyze_paths([p]) == []


class TestShmPublish:
    HEAD = "from repro.core.shm import SharedArrays\n"

    TP = (HEAD +
          "def publish_then_write(fields, ship):\n"
          "    shared = SharedArrays.create(fields)\n"
          "    try:\n"
          "        ship(shared.descriptor())\n"
          "        shared['edge_ptr'][0] = 1\n"     # after publish
          "    finally:\n"
          "        shared.close()\n")

    TN = (HEAD +
          "def fill_then_publish(fields, ship):\n"
          "    shared = SharedArrays.create(fields)\n"
          "    try:\n"
          "        shared['edge_ptr'][0] = 1\n"
          "        ship(shared.descriptor())\n"
          "    finally:\n"
          "        shared.close()\n")

    def test_write_after_descriptor_fires(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/mod.py", self.TP)])
        assert rules_of(fs) == ["shm-publish"]
        f = fs[0]
        assert f.line == 6                     # anchored at the write
        assert "publish@5" in f.message
        # flow replays create -> publish -> offending write
        assert [step[1] for step in f.flow] == [3, 5, 6]

    def test_fill_then_publish_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.TN)
        assert analyze_paths([p]) == []

    def test_ready_flag_is_the_publish(self, tmp_path):
        # the streaming-ingest shape: the ready store itself is fine,
        # a store after it is the race
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def flip(fields):\n"
                  "    shared = SharedArrays.create(fields)\n"
                  "    shared['payload'][0] = 7\n"
                  "    shared['ready'][0] = 1\n"
                  "    return shared\n")
        assert analyze_paths([p]) == []
        q = write(tmp_path, "src/repro/mod2.py", self.HEAD +
                  "def flip(fields):\n"
                  "    shared = SharedArrays.create(fields)\n"
                  "    shared['ready'][0] = 1\n"
                  "    shared['payload'][0] = 7\n"
                  "    return shared\n")
        fs = [f for f in analyze_paths([tmp_path / "src"])
              if f.path.endswith("mod2.py")]
        assert rules_of(fs) == ["shm-publish"]
        assert "ready-flag store" in fs[0].message

    def test_write_through_view_alias_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def viewed(fields, ship):\n"
                  "    shared = SharedArrays.create(fields)\n"
                  "    view = shared['weights']\n"
                  "    try:\n"
                  "        ship(shared.descriptor())\n"
                  "        view[0] = 1.0\n"
                  "    finally:\n"
                  "        shared.close()\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["shm-publish"]
        assert fs[0].line == 7
        assert "store through view 'view'" in fs[0].flow[-1][2]


class TestLockDiscipline:
    CYCLE = (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def one(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def two(self):\n"
        "        with self._b:\n"
        "            with self._a:\n"
        "                pass\n")

    ORDERED = CYCLE.replace(
        "        with self._b:\n"
        "            with self._a:\n",
        "        with self._a:\n"
        "            with self._b:\n", 1)

    def test_lock_order_cycle_fires_once(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/mod.py",
                                  self.CYCLE)])
        assert rules_of(fs) == ["lock-discipline"]
        assert "lock-order cycle" in fs[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        assert self.ORDERED != self.CYCLE
        p = write(tmp_path, "src/repro/mod.py", self.ORDERED)
        assert analyze_paths([p]) == []

    def test_sync_lock_on_coroutine_path_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/sim/mod.py",
                  "import threading\n"
                  "class Svc:\n"
                  "    def __init__(self):\n"
                  "        self._lock = threading.Lock()\n"
                  "    async def handle(self):\n"
                  "        with self._lock:\n"
                  "            return 1\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["lock-discipline"]
        assert "blocks the whole event loop" in fs[0].message
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

    def test_mixed_guard_of_one_attribute_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import asyncio\n"
                  "import threading\n"
                  "class Mixed:\n"
                  "    def __init__(self):\n"
                  "        self._tlock = threading.Lock()\n"
                  "        self._alock = asyncio.Lock()\n"
                  "        self._count = 0\n"
                  "    def bump(self):\n"
                  "        with self._tlock:\n"
                  "            self._count = self._count + 1\n"
                  "    async def abump(self):\n"
                  "        async with self._alock:\n"
                  "            self._count = self._count + 1\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["lock-discipline"]
        assert "do not exclude each other" in fs[0].message

    PROBE_SHARED = (               # PR 9 bug class: starved probes
        "from concurrent.futures import ThreadPoolExecutor\n"
        "class Node:\n"
        "    def __init__(self):\n"
        "        self._io = ThreadPoolExecutor(2)\n"
        "    async def probe_loop(self):\n"
        "        self._io.submit(print)\n"
        "    async def handle(self):\n"
        "        self._io.submit(print)\n")

    PROBE_SPLIT = (                # the PR 9 remediation
        "from concurrent.futures import ThreadPoolExecutor\n"
        "class Node:\n"
        "    def __init__(self):\n"
        "        self._io = ThreadPoolExecutor(2)\n"
        "        self._probe_io = ThreadPoolExecutor(1)\n"
        "    async def probe_loop(self):\n"
        "        self._probe_io.submit(print)\n"
        "    async def handle(self):\n"
        "        self._io.submit(print)\n")

    def test_probe_sharing_data_executor_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mesh/mod.py", self.PROBE_SHARED)
        fs = analyze_paths([p])
        assert rules_of(fs) == ["lock-discipline"]
        assert "starve" in fs[0].message

    def test_dedicated_probe_executor_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mesh/mod.py", self.PROBE_SPLIT)
        assert analyze_paths([p]) == []


class TestForkHygiene:
    UNRESET = (                    # PR 9 bug class: inherited signals
        "import multiprocessing as mp\n"
        "def worker(conn):\n"
        "    msg = conn.recv()\n"
        "    conn.send(msg)\n"
        "def spawn():\n"
        "    parent, child = mp.Pipe()\n"
        "    proc = mp.Process(target=worker, args=(child,))\n"
        "    proc.start()\n"
        "    return parent, proc\n")

    RESET = UNRESET.replace(
        "def worker(conn):\n",
        "from repro.core.workers import reset_inherited_signals\n"
        "def worker(conn):\n"
        "    reset_inherited_signals()\n", 1)

    def test_unreset_worker_fires_per_ipc_touch(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/mod.py",
                                  self.UNRESET)])
        assert rules_of(fs) == ["fork-hygiene", "fork-hygiene"]
        assert {f.line for f in fs} == {3, 4}
        assert "never calls reset_inherited_signals" in fs[0].message

    def test_reset_first_is_clean(self, tmp_path):
        assert self.RESET != self.UNRESET
        p = write(tmp_path, "src/repro/mod.py", self.RESET)
        assert analyze_paths([p]) == []

    def test_reset_on_one_branch_only_fires(self, tmp_path):
        # must-dominate, not may-reach: a branch that skips the reset
        # leaves the touch unguarded
        p = write(tmp_path, "src/repro/mod.py",
                  "import multiprocessing as mp\n"
                  "from repro.core.workers import "
                  "reset_inherited_signals\n"
                  "def worker(conn, fast):\n"
                  "    if fast:\n"
                  "        reset_inherited_signals()\n"
                  "    conn.recv()\n"
                  "def spawn(conn):\n"
                  "    mp.Process(target=worker, args=(conn, True))"
                  ".start()\n")
        fs = analyze_paths([tmp_path / "src"])
        assert rules_of(fs) == ["fork-hygiene"]
        assert "before the reset at line 5" in fs[0].message

    def test_live_lock_across_fork_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import multiprocessing as mp\n"
                  "import threading\n"
                  "class Owner:\n"
                  "    def __init__(self):\n"
                  "        self._lock = threading.Lock()\n"
                  "    def fork(self):\n"
                  "        mp.Process(target=helper, "
                  "args=(self._lock,)).start()\n"
                  "def helper(x):\n"
                  "    pass\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["fork-hygiene"]
        assert "live lock" in fs[0].message
        assert "self._lock" in fs[0].message

    def test_plain_data_across_fork_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import multiprocessing as mp\n"
                  "def helper(payload):\n"
                  "    pass\n"
                  "def fork(n):\n"
                  "    payload = {'n': n}\n"
                  "    mp.Process(target=helper, "
                  "args=(payload,)).start()\n")
        assert analyze_paths([p]) == []


class TestPrimitiveSpawns:
    """Targets of ``repro.core.workers`` spawners are worker entrypoints:
    fork-safety follows them, and their bootstrap's reset covers
    fork-hygiene's reset-before-IPC rule."""

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
        # extract-time: shm-publish (path_findings replay)
        "src/repro/mod_shm.py": TestShmPublish.TP,
        # check-stage: lock-discipline from cached concurrency facts
        "src/repro/mod_lock.py": TestLockDiscipline.CYCLE,
        "src/repro/mesh/mod_exec.py": TestLockDiscipline.PROBE_SHARED,
        # check-stage: fork-hygiene from cached concurrency facts
        "src/repro/mod_fork.py": TestForkHygiene.UNRESET,
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
        assert got == {"task-lifecycle", "shm-publish",
                       "lock-discipline", "fork-hygiene"}
