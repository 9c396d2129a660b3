"""The name -> partitioner table (:mod:`repro.algorithms`).

Every front end that runs a partitioner by name accepts exactly the
table's keys: ``repro partition``, ``repro sim run|compare``, the serve
``partition`` and ``simulate`` ops, and ``benchmarks/bench_sim.py`` (a
subset).  Reading the names stays import-light: the mesh router loads
neither the partitioners nor scipy.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import ALGORITHMS
from repro.cli import _build_parser
from repro.errors import ServeProtocolError
from repro.serve import parse_job_request

ROOT = Path(__file__).resolve().parents[1]
HDAG = {"generator": {"kind": "hyperdag-stencil", "n": 6, "seed": 3}}


def _subparser(parser: argparse.ArgumentParser,
               name: str) -> argparse.ArgumentParser:
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _choices(parser: argparse.ArgumentParser, dest: str) -> list:
    [action] = [a for a in parser._actions if a.dest == dest]
    return list(action.choices)


class TestAcceptedNames:
    def test_front_ends_accept_the_table_keys(self):
        parser = _build_parser()
        names = list(ALGORITHMS)
        assert _choices(_subparser(parser, "partition"),
                        "algorithm") == names
        sim = _subparser(parser, "sim")
        for verb in ("run", "compare"):
            assert _choices(_subparser(sim, verb), "algorithm") == names
        for op in ("partition", "simulate"):
            graph = {"generator": {"kind": "hyperdag-stencil", "n": 4}}
            for name in names:
                req = parse_job_request({"op": op, "graph": graph,
                                         "algorithm": name})
                assert req.params["algorithm"] == name
            with pytest.raises(ServeProtocolError):
                parse_job_request({"op": op, "graph": graph,
                                   "algorithm": "no-such-partitioner"})

    def test_bench_sim_runs_a_subset(self):
        tree = ast.parse((ROOT / "benchmarks" / "bench_sim.py").read_text())
        [value] = [node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "PARTITIONERS"]
        assert set(ast.literal_eval(value)) <= set(ALGORITHMS)

    def test_unhashable_algorithm_is_a_protocol_error(self):
        with pytest.raises(ServeProtocolError):
            parse_job_request({"op": "partition", "graph": HDAG,
                               "algorithm": ["greedy"]})


def test_router_import_loads_no_solver_stack():
    code = ("import sys\n"
            "import repro.mesh.router\n"
            "print(sorted(m for m in ('scipy', 'repro.partitioners')\n"
            "             if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
