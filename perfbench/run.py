"""The repository benchmark: one command, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vcycle-1m --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace 1``
re-runs the same seed with timing wrappers installed and prints the
per-layer metrics instead (see README.md in this directory).  The last
line of standard output is the JSON result; everything above it is
context for a human reader.  Outputs (traces, digests, mesh logs) go to
``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("vcycle-1m", "reps-spmv", "serve-mesh")

# Units of every metric a workload may print.  BENCHMARK.json names the
# gated ones; serve-mesh is runnable but not gated (see README.md).
PARTITION_E2E = {"setup_s": "s", "partition_s": "s", "peak_rss_mb": "MiB"}
MESH_E2E = {"setup_s": "s", "miss_p50_ms": "ms", "miss_p95_ms": "ms",
            "hit_p50_ms": "ms"}
PARTITION_LAYERS = {
    "partitioners.multilevel.cut_cost": "lambda-1",
    "partitioners.subround.coarsen_s": "s",
    "core.hypergraph.contract_s": "s",
    "partitioners.subround.fm_s": "s",
    "partitioners.fm.heap_fm_s": "s",
    "partitioners.fm.heap_fm_calls": "count",
    "partitioners.multilevel.portfolio_s": "s",
    "partitioners.multilevel.levels": "count",
    "partitioners.subround.pool_stages": "count",
    "partitioners.subround.pool_compute_s": "s",
    "partitioners.subround.pool_dispatch_s": "s",
    "core.shm.segment_s": "s",
    "partitioners.multilevel.tasks_wall_s": "s",
    "partitioners.multilevel.tasks_busy_frac": "fraction",
    "partitioners.multilevel.tasks_dispatch_s": "s",
    "partitioners.multilevel.other_s": "s",
    "partitioners.multilevel.serial_partition_s": "s",
    "partitioners.multilevel.speedup": "x",
    "process.cpu_s": "s",
    "partitioners.subround.worker_rss_mb": "MiB",
    "trace.overhead_frac": "fraction",
    "generators.build_s": "s",
    "host.cpu_count": "count",
}
MESH_LAYERS = {
    "mesh.hop_p50_ms": "ms",
    "serve.protocol.parse_key_ms": "ms",
    "serve.jobs.queue_dispatch_p50_ms": "ms",
    "serve.jobs.queue_dispatch_p95_ms": "ms",
    "serve.runner.solve_p50_ms": "ms",
    "lab.cache.hit_frac": "fraction",
    "mesh.router.hedge_frac": "fraction",
    "mesh.shard_exits": "count",
    "mesh.router.down_marks": "count",
    "loadgen.late_p95_ms": "ms",
    "process.cpu_s": "s",
}


def measure(args) -> tuple[dict, dict, list[str]]:
    """Run the workload; returns its result, metric units and notes."""
    if args.workload == "serve-mesh":
        import mesh
        res = mesh.run(args.seed, args.seconds, bool(args.trace))
        units = MESH_LAYERS if args.trace else MESH_E2E
        return res, units, [f"samples: {res['samples']}",
                            f"timed phase: {res['phase_s']:.1f} s"]
    import partition
    res = partition.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), T_START)
    units = PARTITION_LAYERS if args.trace else PARTITION_E2E
    return res, units, [
        f"pins per instance: {res['pins']}",
        "passes (s): " + ", ".join(f"{p:.3f}" for p in res["passes"]),
        "set-ups (s): " + ", ".join(f"{s:.3f}"
                                    for s in res["setup_samples"]),
        f"cut_cost (lambda-1, median pass): {res['cut_cost']:g}",
        f"label digests: {res['digests']}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, metavar="PASSES",
                    help=argparse.SUPPRESS)   # internal: one set-up probe
    args = ap.parse_args(argv)
    common.require_source_tree()
    try:
        if args.setup_only is not None:
            import partition
            partition.setup_only(args.workload, args.seed, args.setup_only,
                                 T_START)
            return 0
        res, units, notes = measure(args)
    finally:
        # on every way out, including an exception: nothing this run
        # started may outlive it
        stray = common.stop_children()
    metrics = res["layers"] if args.trace else res["e2e"]
    notes += [f"problem: {p}" for p in res["problems"]]
    notes += [f"failed: {p}" for p in res.get("failures", [])[:20]]
    leftovers = res.get("leftovers", []) + stray
    notes += [f"left behind: {x}" for x in leftovers]
    for name in units:
        if metrics.get(name) is None:
            notes.append(f"not measured: {name} (too few samples or a "
                         "wrapped function is missing)")
    if args.trace and args.workload != "serve-mesh":
        other = metrics.get("partitioners.multilevel.other_s")
        if other is not None:
            notes.append(f"reconciliation: other_s is {other:.3f} s, "
                         f"{other / res['traced_s']:.1%} of the traced "
                         f"pass ({res['traced_s']:.3f} s)")
    common.emit(correct=not res["problems"] and not leftovers,
                attempted=res["attempted"], failed=res["failed"],
                metrics={k: metrics.get(k) for k in units}, units=units,
                notes=notes, host=common.host_record(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
