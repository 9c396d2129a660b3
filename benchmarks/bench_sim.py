"""Experiment SIM — the scheduler zoo crossed with partitioners.

Runs the :mod:`repro.sim` discrete-event simulator over a matrix of

* hyperDAG workloads (stencil / FFT butterfly),
* Definition 7.1 machine topologies (flat and two-level),
* partitioners feeding the partition-aware schedulers
  (multilevel / spectral / random),
* the scheduler zoo (heft, cp-list, work-steal, locked, random),
* information modes (exact / mean / blind duration estimates),

and records one trace digest per cell.  Simulation is a pure function
of ``(plan, topology, scheduler, imode, seed)``, so the committed
baseline ``benchmarks/BENCH_sim.json`` is compared **exactly** by
``scripts/check_bench_regression.py --suite sim`` — any digest drift
is a real behaviour change, never timing noise.

``--smoke`` shrinks the matrix for the CI tier (< 60 s) and always
verifies jobs-invariance: the matrix is run at ``--jobs 1`` and
``--jobs 2`` and the results must be byte-identical.

Run::

    PYTHONPATH=src python benchmarks/bench_sim.py           # baseline
    PYTHONPATH=src python benchmarks/bench_sim.py --smoke   # CI tier
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from repro.algorithms import run_algorithm
from repro.core.workers import fork_map
from repro.generators import make_workload
from repro.hierarchy.topology import HierarchyTopology
from repro.sim import PARTITION_EPS, DurationSpec, SimPlan, simulate

from _util import print_table

BASELINE = Path(__file__).resolve().parent / "BENCH_sim.json"

#: (workload kind, size parameter) — both recognised hyperDAGs.
FULL_WORKLOADS = (("hyperdag-stencil", 16), ("hyperdag-fft", 5))
SMOKE_WORKLOADS = (("hyperdag-stencil", 8),)

#: (name, branching factors b, per-level transfer costs g) — Def 7.1.
FULL_TOPOLOGIES = (("flat4", (4,), (1.0,)),
                   ("tree2x4", (2, 4), (4.0, 1.0)))
SMOKE_TOPOLOGIES = (("tree2x4", (2, 4), (4.0, 1.0)),)

#: A subset of the names in :data:`repro.algorithms.ALGORITHMS`.
PARTITIONERS = ("multilevel", "spectral", "random")
SCHEDULERS = ("heft", "cp-list", "work-steal", "locked", "random")
IMODES = ("exact", "mean", "blind")

LATENCY = 0.1
SEED = 0

TITLE = "repro.sim: makespan by scheduler (lognormal durations)"
HEADER = ["workload", "topology", "partitioner", "scheduler", "lb",
          "exact", "mean", "blind"]


def _config(smoke: bool) -> dict:
    return {
        "smoke": smoke,
        "workloads": [list(w) for w in
                      (SMOKE_WORKLOADS if smoke else FULL_WORKLOADS)],
        "topologies": [[name, list(b), list(g)] for name, b, g in
                       (SMOKE_TOPOLOGIES if smoke else FULL_TOPOLOGIES)],
        "partitioners": list(PARTITIONERS),
        "schedulers": list(SCHEDULERS),
        "imodes": list(IMODES),
        "latency": LATENCY,
        "seed": SEED,
    }


def _run_group(group: tuple) -> list[dict]:
    """All (scheduler x imode) cells of one (workload, topology,
    partitioner) triple — the plan and partition are built once."""
    (kind, n, topo_name, b, g, algorithm, schedulers, imodes, latency,
     seed) = group
    graph = make_workload(kind, n=n, seed=seed)
    topo = HierarchyTopology(tuple(b), tuple(g))
    plan = SimPlan.from_hypergraph(graph)
    labels = run_algorithm(algorithm, graph, topo.k, PARTITION_EPS,
                           seed=seed).labels
    cells = []
    for scheduler in schedulers:
        for imode in imodes:
            trace = simulate(plan, topo, scheduler, seed=seed,
                             imode=imode, duration=DurationSpec(),
                             latency=latency, partition=labels)
            cells.append({
                "workload": f"{kind}-{n}",
                "topology": topo_name,
                "partitioner": algorithm,
                "scheduler": scheduler,
                "imode": imode,
                "tasks": plan.n,
                "makespan": float(trace.makespan),
                "lower_bound": float(trace.lower_bound),
                "ratio": float(trace.makespan_ratio),
                "transfers": len(trace.transfers),
                "n_events": trace.n_events,
                "digest": trace.digest(),
            })
    return cells


def _groups(cfg: dict) -> list[tuple]:
    return [
        (kind, n, topo_name, tuple(b), tuple(g), algorithm,
         tuple(cfg["schedulers"]), tuple(cfg["imodes"]),
         cfg["latency"], cfg["seed"])
        for kind, n in cfg["workloads"]
        for topo_name, b, g in cfg["topologies"]
        for algorithm in cfg["partitioners"]
    ]


def run(cfg: dict | None = None, *, jobs: int = 1,
        quiet: bool = False) -> dict:
    """Execute the matrix; result is independent of ``jobs``."""
    cfg = cfg or _config(smoke=False)
    groups = _groups(cfg)
    per_group = fork_map(_run_group, [(g,) for g in groups], jobs)
    cells = [c for group in per_group for c in group]
    canonical = json.dumps(cells, sort_keys=True,
                           separators=(",", ":"))
    result = {
        "config": cfg,
        "cells": cells,
        "summary": {
            "n_cells": len(cells),
            "matrix_digest": hashlib.sha256(canonical.encode())
            .hexdigest(),
        },
    }
    if not quiet:
        print_table(TITLE, HEADER, _table_rows(cells))
    return result


def _table_rows(cells: list[dict]) -> list[list]:
    by_key: dict[tuple, dict] = {}
    for c in cells:
        key = (c["workload"], c["topology"], c["partitioner"],
               c["scheduler"])
        row = by_key.setdefault(key, {"lb": c["lower_bound"]})
        row[c["imode"]] = c["makespan"]
    return [[*key, round(row["lb"], 2)]
            + [round(row.get(m, float("nan")), 2) for m in IMODES]
            for key, row in by_key.items()]


def check(result: dict) -> list[str]:
    """Acceptance-bar failures (empty list = all bars pass)."""
    failures = []
    for c in result["cells"]:
        label = (f"{c['workload']}/{c['topology']}/{c['partitioner']}"
                 f"/{c['scheduler']}/{c['imode']}")
        if not (c["makespan"] > 0
                and c["makespan"] >= c["lower_bound"] - 1e-9):
            failures.append(
                f"{label}: makespan {c['makespan']} below lower bound "
                f"{c['lower_bound']}")
        if len(c["digest"]) != 64:
            failures.append(f"{label}: malformed trace digest")
    want = (len(result["config"]["workloads"])
            * len(result["config"]["topologies"])
            * len(result["config"]["partitioners"])
            * len(result["config"]["schedulers"])
            * len(result["config"]["imodes"]))
    if result["summary"]["n_cells"] != want:
        failures.append(
            f"matrix has {result['summary']['n_cells']} cells, "
            f"expected {want}")
    jobs_identical = result["summary"].get("jobs_identical")
    if jobs_identical is False:
        failures.append("matrix differs between --jobs 1 and --jobs 2")
    return failures


# --- lab runner (spec "SIM" in repro.lab.experiments) ------------------

def run_matrix(*, seed: int = SEED, smoke: bool = False):
    cfg = _config(smoke)
    cfg["seed"] = int(seed)
    result = run(cfg, jobs=1, quiet=True)
    return [{"title": TITLE, "header": HEADER,
             "rows": _table_rows(result["cells"])}]


def check_matrix(result) -> None:
    [table] = result
    assert table["rows"]
    for *_key, lb, exact, mean, blind in table["rows"]:
        assert lb > 0
        for makespan in (exact, mean, blind):
            assert makespan >= lb - 1e-9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small matrix (the CI sim-smoke tier); does "
                         "not write the baseline")
    ap.add_argument("--jobs", type=int, default=2,
                    help="process-parallel groups for the primary run")
    ap.add_argument("--out", default=str(BASELINE),
                    help="baseline JSON path (full runs only)")
    args = ap.parse_args(argv)

    cfg = _config(smoke=args.smoke)
    result = run(cfg, jobs=args.jobs)
    # jobs-invariance: the same matrix serially must be byte-identical
    serial = run(cfg, jobs=1, quiet=True)
    identical = (json.dumps(result["cells"], sort_keys=True)
                 == json.dumps(serial["cells"], sort_keys=True))
    result["summary"]["jobs_identical"] = identical

    failures = check(result)
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    if not args.smoke:
        Path(args.out).write_text(json.dumps(result, indent=2,
                                             sort_keys=True) + "\n")
        print(f"baseline written to {args.out}")
    print(f"ok: {result['summary']['n_cells']} cells, traces "
          f"byte-identical across --jobs "
          f"(matrix {result['summary']['matrix_digest'][:16]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
