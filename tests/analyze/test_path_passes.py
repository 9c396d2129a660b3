"""True/false-positive fixture pairs for the path-sensitive passes.

Every pass gets at least one fixture that MUST fire (the bug class it
exists for) and one that MUST stay clean (the remediation it
recommends), plus checks that the CFG witness survives into
``Finding.flow``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analyze import analyze_paths


def write(root: Path, rel: str, text: str) -> Path:
    p = root / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
    return p


def rules_of(findings) -> list[str]:
    return sorted(f.rule for f in findings)


class TestResourceSafetyPaths:
    HEAD = "from repro.core.shm import SharedArrays\n"

    TP = (HEAD +
          "def leak_on_exception(arrays, work):\n"
          "    sa = SharedArrays.create(arrays)\n"
          "    work()\n"                    # raises -> sa leaks
          "    sa.close()\n"
          "    sa.unlink()\n")

    TN = (HEAD +
          "def managed(arrays, work):\n"
          "    with SharedArrays.create(arrays) as sa:\n"
          "        work()\n")

    def test_leak_on_exception_fires_with_witness(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/mod.py", self.TP)])
        assert rules_of(fs) == ["resource-safety"]
        f = fs[0]
        assert f.line == 3                  # anchored at the acquisition
        assert "exception exit" in f.message
        assert "witness:" in f.message
        # the flow replays acquire -> raising call -> raise-exit
        lines = [step[1] for step in f.flow]
        assert lines[0] == 3
        assert 4 in lines

    def test_with_managed_twin_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.TN)
        assert analyze_paths([p]) == []

    def test_none_guarded_finally_is_clean(self, tmp_path):
        # the canonical multilevel.py pool shape: branch refinement on
        # `pool is not None` must prove the None arm clean
        p = write(tmp_path, "src/repro/mod.py",
                  "from repro.core.par import RoundPool\n"
                  "def run(n, work):\n"
                  "    pool = None\n"
                  "    try:\n"
                  "        if n > 1:\n"
                  "            pool = RoundPool(n)\n"
                  "        work(pool)\n"
                  "    finally:\n"
                  "        if pool is not None:\n"
                  "            pool.close()\n")
        assert analyze_paths([p]) == []

    def test_early_return_leak_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "def peek(path, default):\n"
                  "    fh = open(path)\n"
                  "    if default:\n"
                  "        return default\n"  # fh leaks on this path
                  "    line = fh.readline()\n"
                  "    fh.close()\n"
                  "    return line\n")
        fs = analyze_paths([p])
        assert "resource-safety" in rules_of(fs)


class TestAsyncBlockingPaths:
    TP = ("import time\n"
          "def slow_helper():\n"
          "    time.sleep(0.1)\n"
          "async def step(job):\n"
          "    slow_helper()\n"
          "    return job\n")

    TN = ("import asyncio\n"
          "import time\n"
          "def slow_helper():\n"
          "    time.sleep(0.1)\n"
          "async def step(job):\n"
          "    await asyncio.to_thread(slow_helper)\n"
          "    return job\n")

    def test_blocked_coroutine_fires_at_the_sink(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/sim/mod.py",
                                  self.TP)])
        assert rules_of(fs) == ["async-blocking"]
        f = fs[0]
        assert f.line == 3                  # the sleep, not the coroutine
        assert "time.sleep" in f.message
        assert "step" in f.message          # names the coroutine root
        # interprocedural flow: coroutine -> helper -> sink line
        assert f.flow[-1][1] == 3

    def test_to_thread_offload_twin_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/sim/mod.py", self.TN)
        assert analyze_paths([p]) == []

    def test_sync_only_module_has_no_roots(self, tmp_path):
        p = write(tmp_path, "src/repro/sim/mod.py",
                  "import time\n"
                  "def pace():\n"
                  "    time.sleep(0.1)\n")
        assert analyze_paths([p]) == []

    def test_non_serve_sim_coroutines_are_not_roots(self, tmp_path):
        p = write(tmp_path, "src/repro/lab/mod.py", self.TP)
        assert analyze_paths([p]) == []


class TestDtypeBoundsPaths:
    TP = ("import numpy as np\n"
          "def accumulate(deltas, n):\n"
          "    # repro: bounds(n <= 1e7)\n"
          "    acc = np.zeros(4, dtype=np.int32)\n"
          "    i = 0\n"
          "    while i < n:\n"
          "        acc += n\n"             # widens to unbounded
          "        i = i + 1\n"
          "    return acc\n")

    TN = ("import numpy as np\n"
          "def gated(total):\n"
          "    # repro: bounds(total <= 1e9)\n"
          "    if total > 2000000:\n"
          "        raise ValueError('over budget')\n"
          "    return np.int32(total * 1000)\n")

    def test_overflowing_accumulation_fires(self, tmp_path):
        fs = analyze_paths([write(tmp_path, "src/repro/mod.py", self.TP)])
        assert rules_of(fs) == ["dtype-bounds"]
        f = fs[0]
        assert f.line == 7
        assert "accumulation" in f.message
        assert "unbounded" in f.message
        # flow: declared bounds -> overflowing site
        assert [step[1] for step in f.flow] == [3, 7]

    def test_budget_gated_twin_is_clean(self, tmp_path):
        # the guard proves total <= 2e6, so the cast stays under 2**31
        p = write(tmp_path, "src/repro/mod.py", self.TN)
        assert analyze_paths([p]) == []

    def test_ungated_cast_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.TN.replace(
            "    if total > 2000000:\n"
            "        raise ValueError('over budget')\n", ""))
        fs = analyze_paths([p])
        assert rules_of(fs) == ["dtype-bounds"]
        assert "int32 cast" in fs[0].message

    def test_pin_count_shape_proves_clean_under_tight_bounds(self,
                                                             tmp_path):
        # the kernels.pin_count_matrix shape: counts bounded by the
        # number of pins, not by the code values being counted
        p = write(tmp_path, "src/repro/mod.py",
                  "import numpy as np\n"
                  "def pin_count(ptr, pins, labels, k):\n"
                  "    # repro: bounds(len(codes) <= 1e7, k <= 4096)\n"
                  "    m = ptr.shape[0] - 1\n"
                  "    codes = edge_ids(ptr) * k + labels[pins]\n"
                  "    return (np.bincount(codes, minlength=m * k)\n"
                  "            .reshape(m, k).astype(np.int32))\n")
        assert analyze_paths([p]) == []

    def test_dropping_the_size_term_breaks_the_proof(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import numpy as np\n"
                  "def pin_count(ptr, pins, labels, k):\n"
                  "    # repro: bounds(k <= 4096)\n"
                  "    m = ptr.shape[0] - 1\n"
                  "    codes = edge_ids(ptr) * k + labels[pins]\n"
                  "    return (np.bincount(codes, minlength=m * k)\n"
                  "            .reshape(m, k).astype(np.int32))\n")
        assert rules_of(analyze_paths([p])) == ["dtype-bounds"]

    def test_malformed_annotation_is_a_finding(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "def f(n):\n"
                  "    # repro: bounds(n at most 10)\n"
                  "    return n\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["dtype-bounds"]
        assert "malformed" in fs[0].message

    def test_unattached_annotation_is_a_finding(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "# repro: bounds(n <= 10)\n"
                  "X = 1\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["dtype-bounds"]
        assert "not attached" in fs[0].message

    def test_unannotated_function_is_skipped(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import numpy as np\n"
                  "def f(x):\n"
                  "    return np.int32(x)\n")
        assert analyze_paths([p]) == []
