"""Call-graph construction edge cases.

These pin down the resolution behaviours the dataflow passes rely on:
``from x import y as z`` aliasing, re-exports through ``__init__.py``,
method calls on locals typed by construction, module cycles, and the
two registry-dispatch entrypoint discoveries (lab spec registrations
and ``Process(target=...)`` worker spawns).
"""

from __future__ import annotations

from pathlib import Path

from repro.analyze.callgraph import CallGraph, node_id, pretty_node
from repro.analyze.index import ModuleIndex, extract_summary, load_source


def build(root: Path, files: dict[str, str]) -> ModuleIndex:
    paths = []
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        paths.append(p)
    return ModuleIndex([extract_summary(load_source(p))
                        for p in sorted(paths)])


class TestEdges:
    def test_from_import_alias(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/core/alg.py": "def compute():\n    return 1\n",
            "src/repro/use.py": (
                "from repro.core.alg import compute as c\n"
                "def f():\n"
                "    return c()\n"),
        })
        graph = CallGraph(index)
        assert (node_id("repro.core.alg", "compute")
                in graph.edges[node_id("repro.use", "f")])

    def test_init_reexport_chain(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/pkg/__init__.py": "from .impl import thing\n",
            "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            "src/repro/caller.py": (
                "from repro.pkg import thing\n"
                "def g():\n"
                "    return thing()\n"),
        })
        graph = CallGraph(index)
        assert (node_id("repro.pkg.impl", "thing")
                in graph.edges[node_id("repro.caller", "g")])

    def test_method_on_constructed_local(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/core/boxes.py": (
                "class Box:\n"
                "    def __init__(self, n):\n"
                "        self.n = n\n"
                "    def csr(self):\n"
                "        return self.n\n"),
            "src/repro/use.py": (
                "from repro.core.boxes import Box\n"
                "def f():\n"
                "    b = Box(3)\n"
                "    return b.csr()\n"),
        })
        graph = CallGraph(index)
        edges = graph.edges[node_id("repro.use", "f")]
        # Box(3) resolves to the constructor, b.csr() to the method.
        assert node_id("repro.core.boxes", "Box.__init__") in edges
        assert node_id("repro.core.boxes", "Box.csr") in edges

    def test_module_cycle_links_both_ways(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/a.py": (
                "from repro import b\n"
                "def fa():\n"
                "    return b.fb()\n"),
            "src/repro/b.py": (
                "from repro import a\n"
                "def fb():\n"
                "    return 0\n"
                "def caller():\n"
                "    return a.fa()\n"),
        })
        graph = CallGraph(index)
        assert (node_id("repro.b", "fb")
                in graph.edges[node_id("repro.a", "fa")])
        assert (node_id("repro.a", "fa")
                in graph.edges[node_id("repro.b", "caller")])

    def test_external_calls_kept_as_records(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/m.py": (
                "import time\n"
                "def f():\n"
                "    return time.time()\n"),
        })
        graph = CallGraph(index)
        records = graph.external[node_id("repro.m", "f")]
        assert (3, "time.time", "time.time") in records


class TestRegistryDispatch:
    REG = ("from repro.lab.spec import ExperimentSpec, register\n"
           'register(ExperimentSpec(name="X1", module="repro.runfx",'
           ' func="run"))\n')
    RUN = "def run(*, seed):\n    return []\n"

    def test_spec_registration_is_entrypoint(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/expreg.py": self.REG,
            "src/repro/runfx.py": self.RUN,
        })
        graph = CallGraph(index)
        assert (list(graph.runner_entrypoints())
                == [(node_id("repro.runfx", "run"), "X1", [])])

    def test_registration_in_tests_is_not_entrypoint(self, tmp_path):
        index = build(tmp_path, {
            "tests/test_spec.py": self.REG,
            "src/repro/runfx.py": self.RUN,
        })
        graph = CallGraph(index)
        assert list(graph.runner_entrypoints()) == []

    def test_timing_tags_surface(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/expreg.py": (
                "from repro.lab.spec import ExperimentSpec, register\n"
                'register(ExperimentSpec(name="T1", module="repro.runfx",'
                ' func="run", tags=frozenset({TIMING})))\n'),
            "src/repro/runfx.py": self.RUN,
        })
        graph = CallGraph(index)
        [(node, label, tags)] = list(graph.runner_entrypoints())
        assert label == "T1" and tags == ["timing"]

    def test_process_target_is_worker_entrypoint(self, tmp_path):
        index = build(tmp_path, {
            "src/repro/poolfx.py": (
                "from multiprocessing import Process\n"
                "from repro import workfx\n"
                "def spawn():\n"
                "    Process(target=workfx.main).start()\n"),
            "src/repro/workfx.py": "def main():\n    return 1\n",
        })
        graph = CallGraph(index)
        assert (list(graph.worker_entrypoints())
                == [(node_id("repro.workfx", "main"), "repro.workfx.main")])

    def test_pretty_node(self):
        assert pretty_node("repro.m:f") == "repro.m.f"
        assert pretty_node("repro.m:<module>") == "repro.m"
