"""``algorithm`` picks the partitioner behind the partition-aware
schedulers: a simulate job or ``repro sim run`` with ``greedy`` or
``recursive`` schedules on that partitioner's labels, not multilevel's,
and an unknown name is refused."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import Metric
from repro.generators import make_workload
from repro.hierarchy.topology import HierarchyTopology
from repro.io import write_hgr
from repro.partitioners import greedy_sequential_partition, recursive_partition
from repro.serve import parse_job_request
from repro.serve.runner import solve
from repro.sim import DurationSpec, SimPlan, simulate

HDAG = {"generator": {"kind": "hyperdag-stencil", "n": 6, "seed": 3}}
EPS = 0.1               # the balance slack of every simulation's partition


def _job_digest(algorithm: str) -> str:
    req = parse_job_request({"op": "simulate", "graph": HDAG, "k": 4,
                             "seed": 5, "scheduler": "locked",
                             "dist": "fixed", "algorithm": algorithm})
    return solve(seed=req.seed, **req.params)["digest"]


@pytest.mark.parametrize("name, partition", [
    ("greedy", greedy_sequential_partition),
    ("recursive", recursive_partition),
])
def test_simulate_job_runs_the_named_partitioner(name, partition):
    graph = make_workload("hyperdag-stencil", n=6, seed=3)
    labels = partition(graph, 4, EPS, Metric.CONNECTIVITY, rng=5,
                       relaxed=True).labels
    want = simulate(SimPlan.from_hypergraph(graph),
                    HierarchyTopology.flat(4), "locked", seed=5,
                    duration=DurationSpec(kind="fixed"), partition=labels)
    got = _job_digest(name)
    assert got == want.digest()
    assert got != _job_digest("multilevel")


class TestSimCli:
    @pytest.fixture
    def hyperdag_file(self, tmp_path):
        path = tmp_path / "stencil.hgr"
        write_hgr(make_workload("hyperdag-stencil", n=8, seed=0), path)
        return path

    def test_unknown_algorithm_exits_2(self, hyperdag_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "run", str(hyperdag_file),
                  "--algorithm", "no-such-partitioner"])
        assert exc.value.code == 2
        assert "no-such-partitioner" in capsys.readouterr().err

    def test_greedy_is_not_multilevel(self, hyperdag_file, capsys):
        digests = []
        for name in ("greedy", "multilevel"):
            assert main(["sim", "run", str(hyperdag_file), "--topology",
                         "2,2", "--scheduler", "locked", "--seed", "2",
                         "--algorithm", name]) == 0
            out = capsys.readouterr().out
            digests.append([line for line in out.splitlines()
                            if line.startswith("digest")])
        assert digests[0] != digests[1]
