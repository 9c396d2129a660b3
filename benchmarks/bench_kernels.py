"""Kernel microbenchmarks: vectorised CSR kernels vs ``_reference_*`` oracles.

Times every kernel in :mod:`repro.core.kernels` against its retained
Python-loop reference on random hypergraphs of growing size — plus, on
cases small enough for the multilevel partitioner to hand to the heap
FM, ``fm_refine`` against its per-node ``_reference_fm_refine`` loop
(row ``heap_fm``) — and writes
``BENCH_kernels.json`` next to this file — the committed baseline that
``scripts/check_bench_regression.py`` (and the opt-in ``-m benchcheck``
pytest marker) compares fresh runs against.

Run::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # small sizes
    PYTHONPATH=src python benchmarks/bench_kernels.py --no-write # dry run

Also measures the process-parallel V-cycle path
(``multilevel_partition(..., repetitions=8, n_jobs=4)`` vs serial) on a
seeded planted instance; costs must agree, wall-clock gains depend on
available cores.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import cost, kernels
from repro.generators import planted_partition_hypergraph, random_hypergraph
from repro.partitioners import fm, multilevel_partition
from repro.partitioners.multilevel import _SYNC_FM_MIN_NODES

from _util import print_table

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_kernels.json"

#: (n, m) per case; edge sizes 2..6 give ~4 pins/edge, so the last case
#: is the ~50k-pin instance the acceptance criteria are stated on.
FULL_SIZES = [(2_000, 1_250), (5_000, 5_000), (10_000, 12_500)]
QUICK_SIZES = [(500, 400), (2_000, 1_250)]


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_case(n: int, m: int, seed: int, repeats: int) -> dict:
    graph = random_hypergraph(n, m, 2, 6, rng=seed)
    edges = graph.edges
    ptr, pins = graph.csr()
    rng = np.random.default_rng(seed)
    k = 8
    labels = rng.integers(0, k, size=n).astype(np.int64)
    groups = max(1, n // 2)
    mapping = rng.integers(0, groups, size=n).astype(np.int64)
    lengths = np.diff(ptr)
    # duplicate every edge so merge_parallel has real work to do
    dup_ptr = np.concatenate([ptr, ptr[1:] + ptr[-1]])
    dup_pins = np.concatenate([pins, pins])
    dup_edges = edges + edges
    dup_w = np.concatenate([graph.edge_weights, graph.edge_weights])

    raw = [tuple(e) for e in edges]
    pairs = {
        "normalize": (
            lambda: kernels._reference_normalize(raw, n),
            lambda: kernels.normalize_edges(lengths, pins, n),
        ),
        "csr_build": (
            lambda: kernels._reference_csr(edges),
            lambda: kernels.normalize_edges(lengths, pins, n),
        ),
        "incidence": (
            lambda: kernels._reference_incidence(edges, n),
            lambda: kernels.incidence_from_csr(ptr, pins, n),
        ),
        "degrees": (
            lambda: kernels._reference_degrees(edges, n),
            lambda: kernels.degrees_from_pins(pins, n),
        ),
        "contract": (
            lambda: kernels._reference_contract(edges, mapping),
            lambda: kernels.contract_csr(ptr, pins, mapping, groups),
        ),
        "merge_parallel": (
            lambda: kernels._reference_merge_parallel(dup_edges, dup_w),
            lambda: kernels.merge_parallel_csr(dup_ptr, dup_pins, dup_w),
        ),
        "lambdas": (
            lambda: kernels._reference_lambdas(edges, labels, k),
            lambda: kernels.lambda_counts(ptr, pins, labels, k),
        ),
        "fm_state_init": (
            lambda: kernels._reference_pin_counts(edges, labels, k),
            lambda: kernels.pin_count_matrix(ptr, pins, labels, k),
        ),
        "adjacency": (
            lambda: kernels._reference_adjacency(edges, n),
            lambda: kernels.adjacency_csr(ptr, pins, n),
        ),
    }
    if n < _SYNC_FM_MIN_NODES:
        # larger levels refine with the sub-round FM, never the heap FM
        pairs["heap_fm"] = (
            lambda: fm._reference_fm_refine(graph, labels, k=k),
            lambda: fm.fm_refine(graph, labels, k=k),
        )
    out = {}
    for name, (ref, vec) in pairs.items():
        t_ref = _best(ref, repeats)
        t_vec = _best(vec, repeats)
        out[name] = {"ref_s": t_ref, "vec_s": t_vec,
                     "speedup": t_ref / t_vec if t_vec > 0 else float("inf")}
    return {"n": n, "m": m, "pins": graph.num_pins, "seed": seed,
            "kernels": out}


def bench_parallel(repetitions: int = 8, n_jobs: int = 4) -> dict:
    graph, _ = planted_partition_hypergraph(1_000, 4, 3_000, 100, rng=0)

    t0 = time.perf_counter()
    serial = multilevel_partition(graph, 4, eps=0.05, rng=9,
                                  repetitions=repetitions, n_jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = multilevel_partition(graph, 4, eps=0.05, rng=9,
                                    repetitions=repetitions, n_jobs=n_jobs)
    parallel_s = time.perf_counter() - t0
    return {
        "n": graph.n, "pins": graph.num_pins,
        "repetitions": repetitions, "n_jobs": n_jobs,
        "serial_s": serial_s, "parallel_s": parallel_s,
        "serial_cost": cost(graph, serial),
        "parallel_cost": cost(graph, parallel),
    }


def run(sizes, repeats: int, with_parallel: bool = True) -> dict:
    result = {
        "schema": 1,
        "generated_by": "benchmarks/bench_kernels.py",
        "repeats": repeats,
        "cases": [bench_case(n, m, 0, repeats) for n, m in sizes],
    }
    if with_parallel:
        result["parallel"] = bench_parallel()
    return result


def report(result: dict) -> None:
    for case in result["cases"]:
        rows = [(name, f"{v['ref_s'] * 1e3:.2f}", f"{v['vec_s'] * 1e3:.2f}",
                 f"{v['speedup']:.1f}x")
                for name, v in case["kernels"].items()]
        print_table(
            f"kernels @ n={case['n']} m={case['m']} pins={case['pins']}",
            ["kernel", "ref ms", "vec ms", "speedup"], rows)
    par = result.get("parallel")
    if par:
        print_table(
            f"parallel V-cycles @ n={par['n']} reps={par['repetitions']}",
            ["n_jobs", "seconds", "cost"],
            [(1, f"{par['serial_s']:.2f}", par["serial_cost"]),
             (par["n_jobs"], f"{par['parallel_s']:.2f}",
              par["parallel_cost"])])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(DEFAULT_OUT),
                    help="output JSON path (default: committed baseline)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="best-of-N timing repeats")
    ap.add_argument("--quick", action="store_true",
                    help="small sizes only (used by the regression check)")
    ap.add_argument("--no-parallel", action="store_true",
                    help="skip the process-parallel V-cycle measurement")
    ap.add_argument("--no-write", action="store_true",
                    help="print results without writing the JSON")
    args = ap.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    result = run(sizes, args.repeats, with_parallel=not args.no_parallel)
    report(result)

    big = result["cases"][-1]["kernels"]
    for required in ("contract", "incidence", "fm_state_init"):
        status = "ok" if big[required]["speedup"] >= 5 else "BELOW TARGET"
        print(f"  {required}: {big[required]['speedup']:.1f}x (target 5x) "
              f"[{status}]")
    par = result.get("parallel")
    if par and par["parallel_cost"] > par["serial_cost"]:
        print("  WARNING: parallel cost worse than serial "
              "(determinism broken?)")

    if not args.no_write:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
