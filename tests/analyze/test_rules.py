"""Negative-case tests: every analyze rule demonstrably fires, and the
pragma machinery (reason required, unused detection) works."""

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


class TestSeedDiscipline:
    def test_global_rng_calls_fire(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import numpy as np\n"
                  "def f():\n"
                  "    np.random.shuffle([1, 2])\n"
                  "    return np.random.rand()\n")
        assert rules_of(analyze_paths([p])) == ["seed-discipline"] * 2

    def test_stdlib_random_fires_when_imported(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import random\n"
                  "def f():\n"
                  "    random.seed(0)\n"
                  "    return random.randint(0, 3)\n")
        assert rules_of(analyze_paths([p])) == ["seed-discipline"] * 2

    def test_explicit_generator_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "import numpy as np\n"
                  "def f(seed):\n"
                  "    rng = np.random.default_rng(seed)\n"
                  "    return rng.random()\n")
        assert analyze_paths([p]) == []

    def test_scoped_to_src(self, tmp_path):
        p = write(tmp_path, "tests/test_mod.py",
                  "import numpy as np\n"
                  "def f():\n"
                  "    np.random.shuffle([1, 2])\n")
        assert analyze_paths([p]) == []


class TestSilentExcept:
    BAD = ("def f():\n"
           "    try:\n"
           "        1 / 0\n"
           "    except Exception:\n"
           "        pass\n")

    def test_swallowed_exception_fires(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py", self.BAD)
        assert rules_of(analyze_paths([p])) == ["silent-except"]

    def test_bare_except_fires(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py",
                  self.BAD.replace("except Exception:", "except:"))
        assert rules_of(analyze_paths([p])) == ["silent-except"]

    def test_reraise_is_clean(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py",
                  self.BAD.replace("pass", "raise"))
        assert analyze_paths([p]) == []

    def test_logging_is_clean(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py",
                  "import logging\n"
                  + self.BAD.replace("pass", "logging.warning('x')"))
        assert analyze_paths([p]) == []

    def test_narrow_except_is_clean(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py",
                  self.BAD.replace("except Exception:",
                                   "except ValueError:"))
        assert analyze_paths([p]) == []


class TestFloatCostEq:
    def test_cost_equality_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "def f(cost, other):\n"
                  "    return cost == other\n")
        assert rules_of(analyze_paths([p])) == ["float-cost-eq"]

    def test_gain_inequality_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "def f(best_gain, d):\n"
                  "    return best_gain != d\n")
        assert rules_of(analyze_paths([p])) == ["float-cost-eq"]

    def test_tolerance_helpers_are_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "from repro.core.tolerance import close, leq\n"
                  "def f(cost, other):\n"
                  "    return close(cost, other) or leq(cost, other)\n")
        assert analyze_paths([p]) == []

    def test_scoped_to_src(self, tmp_path):
        p = write(tmp_path, "tests/test_mod.py",
                  "def f(cost):\n"
                  "    assert cost == 1.0\n")
        assert analyze_paths([p]) == []


class TestErrorHierarchy:
    ERRORS = ("class ReproError(Exception):\n    pass\n"
              "class InvalidHypergraphError(ReproError):\n    pass\n")

    def test_orphan_error_fires(self, tmp_path):
        write(tmp_path, "src/repro/errors.py", self.ERRORS)
        bad = write(tmp_path, "src/repro/other.py",
                    "class CorruptionError(ValueError):\n    pass\n")
        fs = analyze_paths([tmp_path / "src"])
        assert rules_of(fs) == ["error-hierarchy"]
        assert fs[0].path == bad.as_posix()

    def test_derived_error_is_clean(self, tmp_path):
        write(tmp_path, "src/repro/errors.py", self.ERRORS)
        write(tmp_path, "src/repro/other.py",
              "from .errors import InvalidHypergraphError\n"
              "class BadPinError(InvalidHypergraphError):\n    pass\n")
        assert analyze_paths([tmp_path / "src"]) == []


class TestKernelOracle:
    def test_missing_twin_and_untested_kernel_fire(self, tmp_path):
        write(tmp_path, "src/repro/core/kernels.py",
              "def foo(x):\n    return x\n"
              "def _reference_foo(x):\n    return x\n"
              "def bar(x):\n    return x\n")
        write(tmp_path, "tests/test_k.py",
              "from repro.core.kernels import foo\n")
        fs = analyze_paths([tmp_path / "src", tmp_path / "tests"])
        assert rules_of(fs) == ["kernel-oracle"] * 2
        assert all("'bar'" in f.message for f in fs)

    def test_twin_plus_test_is_clean(self, tmp_path):
        write(tmp_path, "src/repro/core/kernels.py",
              "def foo(x):\n    return x\n"
              "def _reference_foo(x):\n    return x\n")
        write(tmp_path, "tests/test_k.py",
              "from repro.core.kernels import foo\n")
        assert analyze_paths([tmp_path / "src", tmp_path / "tests"]) == []


class TestRunnerSignature:
    SPEC = ("register(ExperimentSpec(name='X', module='bench_x',\n"
            "                        func='run_x', check='check_x'))\n")

    def test_positional_seed_fires(self, tmp_path):
        write(tmp_path, "src/repro/lab/experiments.py", self.SPEC)
        write(tmp_path, "benchmarks/bench_x.py",
              "def run_x(seed):\n    return []\n"
              "def check_x(rows):\n    pass\n")
        fs = analyze_paths([tmp_path / "src"])
        assert rules_of(fs) == ["runner-signature"]
        assert "keyword-only" in fs[0].message

    def test_missing_check_fires(self, tmp_path):
        write(tmp_path, "src/repro/lab/experiments.py", self.SPEC)
        write(tmp_path, "benchmarks/bench_x.py",
              "def run_x(*, seed=0):\n    return []\n")
        fs = analyze_paths([tmp_path / "src"])
        assert rules_of(fs) == ["runner-signature"]
        assert "check_x" in fs[0].message

    def test_conforming_runner_is_clean(self, tmp_path):
        write(tmp_path, "src/repro/lab/experiments.py", self.SPEC)
        write(tmp_path, "benchmarks/bench_x.py",
              "def run_x(*, seed=0, n=10):\n    return []\n"
              "def check_x(rows):\n    pass\n")
        assert analyze_paths([tmp_path / "src"]) == []


class TestResourceSafety:
    """The path-sensitive successor of the old shm-lifecycle rule: the
    same leak shapes must still fire, the same safe shapes must still
    be clean — now proven over the CFG instead of pattern-matched."""

    HEAD = "from repro.core.shm import SharedArrays, SharedCSR\n"

    def test_unreleased_bound_handle_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def leak(arrays):\n"
                  "    sa = SharedArrays.create(arrays)\n"
                  "    return sa.descriptor()\n")
        assert rules_of(analyze_paths([p])) == ["resource-safety"]

    def test_straight_line_close_still_fires(self, tmp_path):
        # released on the happy path only: an exception in between leaks
        fs = analyze_paths([write(
            tmp_path, "src/repro/mod.py", self.HEAD +
            "def leak(graph, send):\n"
            "    shared = SharedCSR.from_hypergraph(graph)\n"
            "    send(shared.descriptor())\n"
            "    shared.close()\n"
            "    shared.unlink()\n")])
        assert rules_of(fs) == ["resource-safety"]
        assert "exception exit" in fs[0].message

    def test_discarded_creation_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def leak(arrays):\n"
                  "    SharedArrays.create(arrays)\n")
        assert rules_of(analyze_paths([p])) == ["resource-safety"]

    def test_raw_shared_memory_create_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py",
                  "from multiprocessing import shared_memory\n"
                  "def leak(n):\n"
                  "    seg = shared_memory.SharedMemory(create=True, size=n)\n"
                  "    return seg.name\n")
        assert rules_of(analyze_paths([p])) == ["resource-safety"]

    def test_with_block_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def ok(graph, run):\n"
                  "    with SharedCSR.from_hypergraph(graph) as shared:\n"
                  "        run(shared.descriptor())\n")
        assert analyze_paths([p]) == []

    def test_bound_then_with_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def ok(graph, run):\n"
                  "    shared = SharedCSR.from_hypergraph(graph)\n"
                  "    with shared:\n"
                  "        run(shared.descriptor())\n")
        assert analyze_paths([p]) == []

    def test_finally_release_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def ok(arrays, run):\n"
                  "    sa = SharedArrays.create(arrays)\n"
                  "    try:\n"
                  "        run(sa.descriptor())\n"
                  "    finally:\n"
                  "        sa.close()\n"
                  "        sa.unlink()\n")
        assert analyze_paths([p]) == []

    def test_ownership_handoff_is_clean(self, tmp_path):
        # returned, stored on self, or appended: another scope releases
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def factory(arrays):\n"
                  "    return SharedArrays.create(arrays)\n"
                  "class Level:\n"
                  "    def __init__(self, graph, pool):\n"
                  "        self.shm = SharedCSR.from_hypergraph(graph)\n"
                  "def collect(graph, handles):\n"
                  "    shared = SharedCSR.from_hypergraph(graph)\n"
                  "    handles.append(shared)\n")
        assert analyze_paths([p]) == []

    def test_equality_with_none_does_not_narrow(self, tmp_path):
        # `fh == None` is not an identity test: only `is None` and
        # `is not None` narrow, so the else arm keeps the live handle
        p = write(tmp_path, "src/repro/mod.py",
                  "def head(path):\n"
                  "    fh = open(path)\n"
                  "    if fh == None:\n"
                  "        line = None\n"
                  "    else:\n"
                  "        return fh.readline()\n"
                  "    fh.close()\n"
                  "    return line\n")
        fs = analyze_paths([p])
        assert rules_of(fs) == ["resource-safety"]
        assert fs[0].line == 2

    def test_attach_is_out_of_scope(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def view(desc):\n"
                  "    sa = SharedArrays.attach(desc)\n"
                  "    return sa['labels'].sum()\n")
        assert analyze_paths([p]) == []

    def test_scoped_to_src(self, tmp_path):
        p = write(tmp_path, "tests/test_mod.py", self.HEAD +
                  "def deliberate_leak(arrays):\n"
                  "    sa = SharedArrays.create(arrays)\n"
                  "    return sa.name\n")
        assert analyze_paths([p]) == []

    def test_pragma_escape_hatch(self, tmp_path):
        p = write(tmp_path, "src/repro/mod.py", self.HEAD +
                  "def kill_test_segment(arrays):\n"
                  "    # analyze: allow(resource-safety) — leak fixture\n"
                  "    sa = SharedArrays.create(arrays)\n"
                  "    return sa.descriptor()\n")
        assert analyze_paths([p]) == []


class TestServeTimeout:
    def test_bare_solver_await_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/serve/mod.py",
                  "async def handler(job):\n"
                  "    return await job.future\n")
        assert rules_of(analyze_paths([p])) == ["serve-timeout"]

    def test_wait_for_outside_wrapper_fires(self, tmp_path):
        p = write(tmp_path, "src/repro/serve/mod.py",
                  "import asyncio\n"
                  "async def handler(fut):\n"
                  "    return await asyncio.wait_for(fut, 5)\n")
        assert rules_of(analyze_paths([p])) == ["serve-timeout"]

    def test_with_deadline_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/serve/mod.py",
                  "from .jobs import with_deadline\n"
                  "async def handler(fut):\n"
                  "    return await with_deadline(fut, 5)\n")
        assert analyze_paths([p]) == []

    def test_io_primitives_are_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/serve/mod.py",
                  "import asyncio\n"
                  "async def handler(reader, queue):\n"
                  "    await asyncio.sleep(0.1)\n"
                  "    await reader.readline()\n"
                  "    return await queue.get()\n")
        assert analyze_paths([p]) == []

    def test_local_async_def_is_clean(self, tmp_path):
        p = write(tmp_path, "src/repro/serve/mod.py",
                  "async def _inner():\n"
                  "    return 1\n"
                  "async def handler():\n"
                  "    return await _inner()\n")
        assert analyze_paths([p]) == []

    def test_pragma_escape_hatch(self, tmp_path):
        p = write(tmp_path, "src/repro/serve/mod.py",
                  "async def handler(job):\n"
                  "    return await job.future  "
                  "# analyze: allow(serve-timeout) — test fixture\n")
        assert analyze_paths([p]) == []

    def test_scoped_to_serve_package(self, tmp_path):
        p = write(tmp_path, "src/repro/lab/mod.py",
                  "async def handler(job):\n"
                  "    return await job.future\n")
        assert analyze_paths([p]) == []


class TestPragmas:
    BAD = TestSilentExcept.BAD

    def test_pragma_with_reason_suppresses(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py", self.BAD.replace(
            "except Exception:",
            "except Exception:  # analyze: allow(silent-except) — "
            "test fixture"))
        assert analyze_paths([p]) == []

    def test_pragma_without_reason_is_flagged(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py", self.BAD.replace(
            "except Exception:",
            "except Exception:  # analyze: allow(silent-except)"))
        assert rules_of(analyze_paths([p])) == ["pragma-missing-reason"]

    def test_unused_pragma_is_flagged(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py",
                  "x = 1  # analyze: allow(silent-except) — nothing here\n")
        assert rules_of(analyze_paths([p])) == ["unused-pragma"]

    def test_comment_line_pragma_covers_next_line(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py", self.BAD.replace(
            "    except Exception:",
            "    # analyze: allow(silent-except) — covers next line\n"
            "    except Exception:"))
        assert analyze_paths([p]) == []

    def test_pragma_in_string_literal_is_ignored(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py",
                  "x = '# analyze: allow(silent-except) — not a comment'\n")
        assert analyze_paths([p]) == []

    def test_wrong_rule_pragma_does_not_suppress(self, tmp_path):
        p = write(tmp_path, "pkg/mod.py", self.BAD.replace(
            "except Exception:",
            "except Exception:  # analyze: allow(seed-discipline) — "
            "wrong rule"))
        assert rules_of(analyze_paths([p])) == ["silent-except",
                                                "unused-pragma"]
