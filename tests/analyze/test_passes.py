"""Fixture true-positive / true-negative tests for the dataflow passes.

Each interprocedural pass gets at least one planted violation (the
pass must find it through a call chain, not at the entrypoint itself)
and one compliant twin (the pass must stay silent).
"""

from __future__ import annotations

from pathlib import Path

from repro.analyze import analyze_paths


def build(root: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        paths.append(p)
    return sorted(paths)


def findings_of(rule, findings):
    return [f for f in findings if f.rule == rule]


REG = ("from repro.lab.spec import ExperimentSpec, register\n"
       'register(ExperimentSpec(name="E1", module="repro.runmod",'
       ' func="run"))\n')

TIMING_REG = ("from repro.lab.spec import ExperimentSpec, register\n"
              'register(ExperimentSpec(name="T1", module="repro.runmod",'
              ' func="run", tags=frozenset({TIMING})))\n')


class TestDeterminism:
    def test_transitive_wall_clock_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": REG,
            "src/repro/runmod.py": (
                "from repro import helpmod\n"
                "def run(*, seed):\n"
                "    return helpmod.stamp()\n"),
            "src/repro/helpmod.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"),
        })
        [f] = findings_of("determinism", analyze_paths(paths))
        assert f.path.endswith("helpmod.py") and f.line == 3
        assert "'time.time' (wall-clock)" in f.message
        assert "runner 'E1'" in f.message
        assert "repro.runmod.run -> repro.helpmod.stamp" in f.message

    def test_perf_counter_is_allowed(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": REG,
            "src/repro/runmod.py": (
                "import time\n"
                "def run(*, seed):\n"
                "    t = time.perf_counter()\n"
                "    return [time.perf_counter() - t]\n"),
        })
        assert findings_of("determinism", analyze_paths(paths)) == []

    def test_timing_tagged_runner_is_exempt(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": TIMING_REG,
            "src/repro/runmod.py": (
                "import time\n"
                "def run(*, seed):\n"
                "    return [time.time()]\n"),
        })
        assert findings_of("determinism", analyze_paths(paths)) == []

    def test_unreachable_sink_is_silent(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": REG,
            "src/repro/runmod.py": "def run(*, seed):\n    return []\n",
            "src/repro/helpmod.py": (
                "import time\n"
                "def stamp():\n"       # never called by the runner
                "    return time.time()\n"),
        })
        assert findings_of("determinism", analyze_paths(paths)) == []

    def test_env_read_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": REG,
            "src/repro/runmod.py": (
                "import os\n"
                "def run(*, seed):\n"
                "    return [os.environ.get('HOME')]\n"),
        })
        [f] = findings_of("determinism", analyze_paths(paths))
        assert "(environment)" in f.message

    def test_pragma_suppresses_with_reason(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": REG,
            "src/repro/runmod.py": (
                "import os\n"
                "def run(*, seed):\n"
                "    # repro: allow[determinism] — debug knob, not a "
                "result input\n"
                "    return [os.environ.get('HOME')]\n"),
        })
        assert analyze_paths(paths) == []


class TestSimSchedulerDeterminism:
    SIM_REG = ("from repro.sim.schedulers import register_scheduler\n"
               "from repro.schedmod import MySched\n"
               'register_scheduler("my", MySched)\n')

    def test_transitive_wall_clock_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/simreg.py": self.SIM_REG,
            "src/repro/schedmod.py": (
                "from repro import clockmod\n"
                "class MySched:\n"
                "    def start(self, ctx):\n"
                "        self.ctx = ctx\n"
                "    def update(self, msg):\n"
                "        return clockmod.jitter()\n"),
            "src/repro/clockmod.py": (
                "import time\n"
                "def jitter():\n"
                "    return time.time()\n"),
        })
        [f] = findings_of("determinism", analyze_paths(paths))
        assert f.path.endswith("clockmod.py") and f.line == 3
        assert "'time.time' (wall-clock)" in f.message
        assert "sim scheduler 'my'" in f.message

    def test_global_rng_in_scheduler_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/simreg.py": self.SIM_REG,
            "src/repro/schedmod.py": (
                "import numpy as np\n"
                "class MySched:\n"
                "    def update(self, msg):\n"
                "        return np.random.permutation(4)\n"),
        })
        [f] = findings_of("determinism", analyze_paths(paths))
        assert "(global-RNG)" in f.message
        assert "sim scheduler 'my'" in f.message

    def test_inherited_method_is_a_root(self, tmp_path):
        # The sink lives in a base-class method the registered class
        # only inherits; the base chain walk must still reach it.
        paths = build(tmp_path, {
            "src/repro/simreg.py": self.SIM_REG,
            "src/repro/basemod.py": (
                "import time\n"
                "class Base:\n"
                "    def update(self, msg):\n"
                "        return time.time_ns()\n"),
            "src/repro/schedmod.py": (
                "from repro.basemod import Base\n"
                "class MySched(Base):\n"
                "    pass\n"),
        })
        [f] = findings_of("determinism", analyze_paths(paths))
        assert f.path.endswith("basemod.py")
        assert "sim scheduler 'my'" in f.message

    def test_simulated_clock_scheduler_is_clean(self, tmp_path):
        # Reading msg.time (the simulated clock) and drawing from the
        # context Generator is the sanctioned pattern: no findings.
        paths = build(tmp_path, {
            "src/repro/simreg.py": self.SIM_REG,
            "src/repro/schedmod.py": (
                "class MySched:\n"
                "    def start(self, ctx):\n"
                "        self.rng = ctx.rng\n"
                "    def update(self, msg):\n"
                "        if msg.time > 0:\n"
                "            return [(self.rng.integers(4), 0)]\n"
                "        return []\n"),
        })
        assert findings_of("determinism", analyze_paths(paths)) == []

    def test_registration_outside_src_is_ignored(self, tmp_path):
        # A fixture registering a scheduler from a test file must not
        # turn library code into an entrypoint.
        paths = build(tmp_path, {
            "tests/test_fix.py": self.SIM_REG,
            "src/repro/schedmod.py": (
                "import time\n"
                "class MySched:\n"
                "    def update(self, msg):\n"
                "        return time.time()\n"),
        })
        assert findings_of("determinism", analyze_paths(paths)) == []


class TestForkSafety:
    POOL = ("from multiprocessing import Process\n"
            "from repro import workfx\n"
            "def spawn():\n"
            "    Process(target=workfx.child).start()\n")

    def test_transitive_global_mutation_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/poolfx.py": self.POOL,
            "src/repro/workfx.py": (
                "_CACHE = {}\n"
                "def child():\n"
                "    deeper()\n"
                "def deeper():\n"
                "    _CACHE['k'] = 1\n"),
        })
        [f] = findings_of("fork-safety", analyze_paths(paths))
        assert f.path.endswith("workfx.py") and f.line == 5
        assert "'repro.workfx._CACHE'" in f.message
        assert "worker entrypoint 'repro.workfx.child'" in f.message
        assert "repro.workfx.child -> repro.workfx.deeper" in f.message

    def test_local_mutation_is_clean(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/poolfx.py": self.POOL,
            "src/repro/workfx.py": (
                "def child():\n"
                "    acc = []\n"
                "    acc.append(1)\n"
                "    return acc\n"),
        })
        assert findings_of("fork-safety", analyze_paths(paths)) == []

    def test_mutator_method_on_module_state_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/poolfx.py": self.POOL,
            "src/repro/workfx.py": (
                "_SEEN = set()\n"
                "def child():\n"
                "    _SEEN.add(1)\n"),
        })
        [f] = findings_of("fork-safety", analyze_paths(paths))
        assert "_SEEN.add()" in f.message

    def test_inherited_event_loop_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/poolfx.py": self.POOL,
            "src/repro/workfx.py": (
                "import asyncio\n"
                "def child():\n"
                "    loop = asyncio.get_event_loop()\n"
                "    return loop\n"),
        })
        [f] = findings_of("fork-safety", analyze_paths(paths))
        assert "inherits the parent's event loop" in f.message

    def test_same_code_without_worker_is_clean(self, tmp_path):
        # No Process(target=...) anywhere: no roots, no findings.
        paths = build(tmp_path, {
            "src/repro/workfx.py": (
                "_CACHE = {}\n"
                "def child():\n"
                "    _CACHE['k'] = 1\n"),
        })
        assert findings_of("fork-safety", analyze_paths(paths)) == []


class TestRngProvenance:
    def test_module_global_generator_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="E1", module="repro.rngmod",'
                ' func="run"))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "_RNG = np.random.default_rng(0)\n"
                "def run(*, seed):\n"
                "    return [_RNG.random()]\n"),
        })
        [f] = findings_of("rng-provenance", analyze_paths(paths))
        assert "module-global Generator '_RNG'" in f.message
        assert "runner 'E1'" in f.message

    def test_unseeded_generator_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="E1", module="repro.rngmod",'
                ' func="run"))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "def run(*, seed):\n"
                "    rng = np.random.default_rng()\n"
                "    return [rng.random()]\n"),
        })
        [f] = findings_of("rng-provenance", analyze_paths(paths))
        assert "without a seed" in f.message

    def test_global_passed_as_argument_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="E1", module="repro.rngmod",'
                ' func="run"))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "_RNG = np.random.default_rng(0)\n"
                "def run(*, seed):\n"
                "    return helper(_RNG)\n"
                "def helper(rng):\n"
                "    return [rng.random()]\n"),
        })
        [f] = findings_of("rng-provenance", analyze_paths(paths))
        assert "passed as an argument" in f.message

    def test_unseeded_generator_passed_down_fires(self, tmp_path):
        # the callee's parameter looks seeded: only the call site can tell
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="E1", module="repro.rngmod",'
                ' func="run"))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "def run(*, seed):\n"
                "    rng = np.random.default_rng()\n"
                "    return helper(rng) + helper(np.random.default_rng())\n"
                "def helper(rng):\n"
                "    return [rng.random()]\n"),
        })
        fs = findings_of("rng-provenance", analyze_paths(paths))
        assert [f.line for f in fs] == [4, 4]
        assert all("without a seed passed as an argument" in f.message
                   for f in fs)
        assert sorted(f.message.split(" built")[0] for f in fs) == [
            "Generator 'np.random.default_rng()'", "Generator 'rng'"]

    def test_unseeded_isinstance_fallback_fires(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="E1", module="repro.rngmod",'
                ' func="run"))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "def run(*, seed, rng=None):\n"
                "    gen = (rng if isinstance(rng, np.random.Generator)\n"
                "           else np.random.default_rng())\n"
                "    return [gen.random()]\n"),
        })
        [f] = findings_of("rng-provenance", analyze_paths(paths))
        assert "Generator 'gen' built by default_rng() without a seed" \
            in f.message
        seeded = paths[-1].read_text().replace("default_rng()",
                                               "default_rng(seed)")
        paths[-1].write_text(seeded)
        assert analyze_paths(paths) == []

    def test_seed_threaded_generator_is_clean(self, tmp_path):
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="E1", module="repro.rngmod",'
                ' func="run"))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "def run(*, seed):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    return helper(rng)\n"
                "def helper(rng):\n"
                "    return [rng.random()]\n"),
        })
        assert analyze_paths(paths) == []

    def test_timing_runner_still_checked(self, tmp_path):
        # Timing benches skip the determinism pass, never this one.
        paths = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="T1", module="repro.rngmod",'
                ' func="run", tags=frozenset({TIMING})))\n'),
            "src/repro/rngmod.py": (
                "import numpy as np\n"
                "_RNG = np.random.default_rng(0)\n"
                "def run(*, seed):\n"
                "    return [_RNG.random()]\n"),
        })
        assert len(findings_of("rng-provenance", analyze_paths(paths))) == 1
