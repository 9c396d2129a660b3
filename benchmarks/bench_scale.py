"""Experiment SCALE — million-pin V-cycles on the shared-memory layer.

Exercises the full scale stack in one measured story: a streaming
generator materialises a 10^6-pin planted instance straight into CSR
arrays, `multilevel_partition` runs one deterministic V-cycle per
``n_jobs`` setting, and the suite asserts the three acceptance bars of
the scale work:

* **determinism** — the returned partition is bitwise-identical for
  every ``n_jobs`` (sub-round coarsening/refinement breaks every tie by
  (rating, vertex-id), so parallelism cannot change the answer);
* **memory** — pool workers attach the shared CSR segments instead of
  copying the hypergraph, so their peak-RSS delta stays under 1.5x the
  CSR payload;
* **hygiene** — no ``repro_shm_*`` segment outlives the run.

After the timed runs, one more serial V-cycle runs untimed under
``tracemalloc``; its peak (``vcycle_traced_peak_bytes``) is what the
V-cycle allocates beside the input's CSR arrays and weights.  It is
deterministic to a fraction of a percent, so
``check_bench_regression.py --suite scale`` holds it to
``TRACED_PEAK_FACTOR`` of the committed baseline.

The speedup bar is *conditional on hardware*: the committed baseline
records ``cpu_count``, and the >= 2x requirement at ``n_jobs=4`` only
applies when at least 4 cores exist.  On a single-core box (most CI
sandboxes) the enforced bar is instead *dispatch-overhead parity* —
``n_jobs=4`` within ``PARITY_FACTOR`` of serial, which proves the
shared-memory handoff and sub-round scheduling add no real cost even
when they cannot add speed.

Run::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full 1e6
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # 1e5, CI
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import time
import tracemalloc
from pathlib import Path

from repro import instrument
from repro.core import Metric, cost
from repro.core.workers import peak_rss_bytes
from repro.generators import streaming_planted_hypergraph

from _util import print_table

BASELINE = Path(__file__).resolve().parent / "BENCH_scale.json"

# 10^6 pins: 300k nodes, 200k edges x 5 pins, 90% planted-intra
FULL = dict(n=300_000, m_intra=180_000, m_inter=20_000, edge_size=5)
# 10^5 pins: the CI scale-smoke tier (ci_checks.sh budgets 60 s)
SMOKE = dict(n=30_000, m_intra=18_000, m_inter=2_000, edge_size=5)

K = 8
EPS = 0.05
SEED = 7
JOBS = (1, 4)
SPEEDUP_MIN = 2.0     # enforced when cpu_count >= 4
PARITY_FACTOR = 1.3   # enforced instead on fewer cores
RSS_FACTOR = 1.5      # worker peak-RSS delta vs CSR payload
TRACED_PEAK_FACTOR = 1.05   # traced V-cycle peak vs the baseline's

TITLE = "Million-pin V-cycle (planted, k=8)"
HEADER = ["n_jobs", "seconds", "cost", "worker rss (MB)", "digest"]


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro_shm_*"))


def _csr_payload_bytes(graph) -> int:
    """Bytes of the arrays SharedCSR ships (incl. the incidence CSR)."""
    ptr, pins = graph.csr()
    node_ptr, node_edges = graph.incidence()
    return (ptr.nbytes + pins.nbytes + node_ptr.nbytes + node_edges.nbytes
            + graph.node_weights.nbytes + graph.edge_weights.nbytes)


def _traced_peak_bytes(graph, seed: int) -> int:
    """``tracemalloc`` peak of one serial V-cycle over ``graph``.

    The input's caches are dropped first, so the figure includes its
    incidence and does not depend on which runs came before.
    """
    from repro.partitioners import multilevel_partition

    graph.drop_caches()
    tracemalloc.start()
    try:
        multilevel_partition(graph, K, eps=EPS, metric=Metric.CONNECTIVITY,
                             rng=seed, n_jobs=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(config: dict | None = None, *, jobs=JOBS, seed=SEED,
        quiet: bool = False) -> dict:
    from repro.partitioners import multilevel_partition

    cfg = dict(FULL if config is None else config)
    before_segments = _shm_segments()

    t0 = time.perf_counter()
    graph, planted = streaming_planted_hypergraph(
        cfg["n"], K, cfg["m_intra"], cfg["m_inter"],
        edge_size=cfg["edge_size"], rng=seed)
    gen_s = time.perf_counter() - t0
    payload = _csr_payload_bytes(graph)

    rows = []
    runs = []
    for n_jobs in jobs:
        instrument.reset()
        t0 = time.perf_counter()
        part = multilevel_partition(graph, K, eps=EPS,
                                    metric=Metric.CONNECTIVITY,
                                    rng=seed, n_jobs=n_jobs)
        dt = time.perf_counter() - t0
        snap = instrument.snapshot()
        rss = int(snap.get("pool_worker_rss_delta_bytes_max", 0))
        digest = hashlib.sha256(part.labels.tobytes()).hexdigest()
        c = float(cost(graph, part, Metric.CONNECTIVITY))
        runs.append({"n_jobs": n_jobs, "seconds": round(dt, 3),
                     "cost": c, "worker_rss_delta_bytes": rss,
                     "labels_sha256": digest})
        rows.append((n_jobs, f"{dt:.2f}", int(c),
                     f"{rss / 2**20:.1f}", digest[:12]))

    leftovers = sorted(_shm_segments() - before_segments)
    traced_peak = _traced_peak_bytes(graph, seed)
    planted_cost = float(cost(graph, planted, k=K,
                              metric=Metric.CONNECTIVITY))

    t_by_jobs = {r["n_jobs"]: r["seconds"] for r in runs}
    speedup = (t_by_jobs[jobs[0]] / t_by_jobs[jobs[-1]]
               if len(jobs) > 1 else 1.0)
    worker_rss = max(r["worker_rss_delta_bytes"] for r in runs)
    result = {
        "config": {**cfg, "k": K, "eps": EPS, "seed": seed,
                   "jobs": list(jobs)},
        "cpu_count": os.cpu_count() or 1,
        "generate_s": round(gen_s, 3),
        "pins": graph.num_pins,
        "csr_payload_bytes": payload,
        "planted_cost": planted_cost,
        "parent_peak_rss_bytes": peak_rss_bytes(),
        "vcycle_traced_peak_bytes": traced_peak,
        "runs": runs,
        "summary": {
            "identical": len({r["labels_sha256"] for r in runs}) == 1,
            "speedup": round(speedup, 3),
            "worker_rss_delta_bytes_max": worker_rss,
            "rss_vs_payload": round(worker_rss / payload, 3),
            "shm_leftovers": leftovers,
        },
    }
    if not quiet:
        print(f"instance: n={cfg['n']} pins={graph.num_pins} "
              f"payload={payload / 2**20:.1f} MB "
              f"generated in {gen_s:.2f}s "
              f"(planted cost {planted_cost:.0f})")
        print_table(TITLE, HEADER, rows)
        print(f"serial V-cycle tracemalloc peak: {traced_peak / 2**20:.1f} MB")
    return result


def check(result: dict, *, require_speedup: bool | None = None) -> list[str]:
    """Acceptance-bar failures (empty list = all bars pass).

    ``require_speedup=None`` resolves from the machine the *result* was
    measured on: the >= 2x bar applies only where 4 cores exist.
    """
    s = result["summary"]
    if require_speedup is None:
        require_speedup = result["cpu_count"] >= 4
    failures = []
    if not s["identical"]:
        failures.append("partitions differ across n_jobs")
    if require_speedup:
        if s["speedup"] < SPEEDUP_MIN:
            failures.append(
                f"speedup {s['speedup']}x < {SPEEDUP_MIN}x at n_jobs=4 "
                f"(cpu_count={result['cpu_count']})")
    elif s["speedup"] < 1.0 / PARITY_FACTOR:
        failures.append(
            f"n_jobs=4 is {1 / s['speedup']:.2f}x slower than serial "
            f"(> {PARITY_FACTOR}x parity bound on "
            f"{result['cpu_count']} core(s))")
    rss = s["worker_rss_delta_bytes_max"]
    if rss and rss > RSS_FACTOR * result["csr_payload_bytes"]:
        failures.append(
            f"worker peak-RSS delta {rss / 2**20:.1f} MB exceeds "
            f"{RSS_FACTOR}x the {result['csr_payload_bytes'] / 2**20:.1f}"
            " MB CSR payload")
    if s["shm_leftovers"]:
        failures.append(f"orphaned shm segments: {s['shm_leftovers']}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="10^5-pin instance (the CI scale-smoke tier); "
                         "does not write the baseline")
    ap.add_argument("--out", default=str(BASELINE),
                    help="baseline JSON path (full runs only)")
    args = ap.parse_args(argv)

    result = run(SMOKE if args.smoke else FULL)
    failures = check(result)
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    if not args.smoke:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {args.out}")
    print("ok: partitions bitwise-identical across n_jobs; "
          f"speedup {result['summary']['speedup']}x on "
          f"{result['cpu_count']} core(s); no shm leftovers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
