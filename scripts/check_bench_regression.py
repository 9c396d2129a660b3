#!/usr/bin/env python
"""Guard against performance regressions, per suite.

``--suite kernels`` (default)
    Re-runs the microbenchmarks from ``benchmarks/bench_kernels.py`` on
    the exact instance sizes recorded in the committed baseline
    (``benchmarks/BENCH_kernels.json``) and compares the
    vectorised-kernel timings.  Fails if any kernel is more than
    ``--tolerance`` slower than its baseline time.
``--suite serve``
    Re-runs the ``repro serve`` load harness
    (``benchmarks/bench_serve_load.py``) at the committed baseline's
    configuration (``benchmarks/BENCH_serve.json``) and enforces the
    serving acceptance bars — batched speedup >= 3x, cache-hit p50
    < 5 ms, 429s shed under overload, accepted p99 <= 2x baseline p99
    — plus batched throughput within ``--tolerance`` of the baseline.
``--suite analyze``
    Re-runs the analysis-engine self-benchmark
    (``benchmarks/bench_analyze.py``) and enforces its acceptance
    bars — warm (incremental) run under the 2 s budget with findings
    byte-identical to the cold run, and ``--jobs N`` parallel findings
    byte-identical to serial — plus warm time within ``--tolerance``
    of the committed ``benchmarks/BENCH_analyze.json``.  The parallel
    *speedup* is recorded, never gated: it is hardware-conditional.
``--suite scale``
    Re-runs the million-pin scale suite (``benchmarks/bench_scale.py``)
    at the committed baseline's instance size
    (``benchmarks/BENCH_scale.json``) and enforces its acceptance
    bars — partition bitwise-identical across ``n_jobs``, worker
    peak-RSS delta < 1.5x the CSR payload, no orphaned ``/dev/shm``
    segments, and (on >= 4 cores) >= 2x single-V-cycle speedup at
    ``n_jobs=4`` — plus serial wall-clock within ``--tolerance`` of
    the baseline, and the ``tracemalloc`` peak of one serial V-cycle
    within 1.05x of the baseline's (``--tolerance`` does not apply:
    the peak is deterministic).
``--suite sim``
    Re-runs the discrete-event simulation matrix
    (``benchmarks/bench_sim.py``) at the committed baseline's
    configuration (``benchmarks/BENCH_sim.json``).  Simulation is
    deterministic, so this gate is **exact**: every cell's trace
    digest must match the baseline bit-for-bit — ``--tolerance`` does
    not apply.  A mismatch means the simulator or a scheduler changed
    behaviour, never that the machine was busy.
``--suite mesh``
    Checks the sharded-serving chaos gates twice: once on the
    committed full-scale baseline (``benchmarks/BENCH_mesh.json``)
    and once on a fresh smoke-scale run of
    ``benchmarks/bench_mesh.py`` — zero lost acknowledged jobs under
    SIGKILL/restart, cache-hit resubmission across a dead shard,
    hedged p99 below unhedged p99, streaming ingest >= 3x the JSON
    path, and no ``/dev/shm`` leak.  The bars are absolute;
    ``--tolerance`` does not apply.
``--suite all``
    All of them.

Run::

    python scripts/check_bench_regression.py
    python scripts/check_bench_regression.py --suite serve
    python scripts/check_bench_regression.py --tolerance 0.5 --repeats 9
    REPRO_BENCH_TOLERANCE=0.75 python scripts/check_bench_regression.py

Also wired as an opt-in pytest marker::

    PYTHONPATH=src python -m pytest -m benchcheck

Timing on shared hardware is noisy; the check uses best-of-N repeats and
a generous threshold, but a loaded machine can still produce false
positives — rerun before trusting a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for p in (ROOT / "src", ROOT / "benchmarks"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import bench_kernels  # noqa: E402

DEFAULT_BASELINE = ROOT / "benchmarks" / "BENCH_kernels.json"
DEFAULT_SERVE_BASELINE = ROOT / "benchmarks" / "BENCH_serve.json"
DEFAULT_ANALYZE_BASELINE = ROOT / "benchmarks" / "BENCH_analyze.json"
DEFAULT_SCALE_BASELINE = ROOT / "benchmarks" / "BENCH_scale.json"
DEFAULT_SIM_BASELINE = ROOT / "benchmarks" / "BENCH_sim.json"
DEFAULT_MESH_BASELINE = ROOT / "benchmarks" / "BENCH_mesh.json"


def compare(baseline: dict, fresh: dict, threshold: float,
            abs_margin_s: float = 5e-4) -> list[str]:
    """Return one failure message per kernel slower than baseline*(1+thr).

    A regression must exceed the relative threshold AND be at least
    ``abs_margin_s`` slower in absolute terms — sub-millisecond kernels
    jitter by factors of 2-3x from scheduler noise alone, and a 0.2 ms
    blip is not a regression worth failing CI over.
    """
    base_cases = {(c["n"], c["m"]): c["kernels"] for c in baseline["cases"]}
    failures: list[str] = []
    for case in fresh["cases"]:
        key = (case["n"], case["m"])
        base = base_cases.get(key)
        if base is None:
            continue
        print(f"n={key[0]} m={key[1]}")
        for name, v in case["kernels"].items():
            if name not in base:
                continue
            base_s = base[name]["vec_s"]
            ratio = v["vec_s"] / base_s
            slow = (ratio > 1 + threshold
                    and v["vec_s"] - base_s > abs_margin_s)
            print(f"  {name:<15} baseline {base_s * 1e3:8.2f} ms"
                  f"  now {v['vec_s'] * 1e3:8.2f} ms  ({ratio:5.2f}x) "
                  f"{'SLOW' if slow else 'ok'}")
            if slow:
                failures.append(
                    f"{name} @ n={key[0]},m={key[1]}: {ratio:.2f}x baseline "
                    f"(> {1 + threshold:.2f}x allowed)")
    return failures


def compare_serve(baseline: dict, fresh: dict,
                  threshold: float) -> list[str]:
    """Failure messages for the serving suite.

    Two kinds of check: the absolute acceptance bars the serving layer
    was built to (batching pays, cache is instant, overload sheds
    without wrecking accepted latency), and a relative throughput
    comparison against the committed baseline.
    """
    s = fresh["summary"]
    o = fresh["overload"]
    print(f"  overload: {o['accepted']} accepted, {o['shed_429']} shed, "
          f"final statuses {o['statuses']}")
    failures: list[str] = []
    bars = [
        (f"batched speedup {s['batched_speedup']}x (>= 3x)",
         s["batched_speedup"] >= 3.0),
        (f"cache-hit p50 {s['cache_hit_p50_ms']}ms (< 5ms)",
         s["cache_hit_p50_ms"] < 5.0),
        (f"overload sheds {s['overload_shed_429']} x 429 (> 0)",
         s["overload_shed_429"] > 0),
        (f"overload p99 ratio {s['overload_p99_ratio']}x (<= 2x)",
         s["overload_p99_ratio"] <= 2.0),
    ]
    for label, ok in bars:
        print(f"  bar: {label:<42} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"acceptance bar failed: {label}")
    base_t = baseline["batched"]["throughput_jps"]
    fresh_t = fresh["batched"]["throughput_jps"]
    ratio = fresh_t / max(base_t, 1e-9)
    slow = ratio < 1 - threshold
    print(f"  batched throughput: baseline {base_t:.1f} jps  "
          f"now {fresh_t:.1f} jps  ({ratio:.2f}x) "
          f"{'SLOW' if slow else 'ok'}")
    if slow:
        failures.append(
            f"batched throughput {fresh_t:.1f} jps is {ratio:.2f}x the "
            f"baseline {base_t:.1f} jps (< {1 - threshold:.2f}x allowed)")
    return failures


def _load_baseline(path: Path, generator: str) -> dict | None:
    if not path.exists():
        print(f"error: baseline not found at {path}; generate it "
              f"with: PYTHONPATH=src python benchmarks/{generator}",
              file=sys.stderr)
        return None
    return json.loads(path.read_text())


def run_kernels_suite(args, tolerance: float) -> list[str] | None:
    baseline = _load_baseline(Path(args.baseline), "bench_kernels.py")
    if baseline is None:
        return None
    sizes = [(c["n"], c["m"]) for c in baseline["cases"]]
    fresh = bench_kernels.run(sizes, args.repeats, with_parallel=False)
    return compare(baseline, fresh, tolerance,
                   abs_margin_s=args.abs_margin_ms * 1e-3)


def run_serve_suite(args, tolerance: float) -> list[str] | None:
    import bench_serve_load
    baseline = _load_baseline(Path(args.serve_baseline),
                              "bench_serve_load.py")
    if baseline is None:
        return None
    cfg = baseline.get("config", {})
    fresh = bench_serve_load.run(cfg.get("jobs", 300),
                                 cfg.get("clients", 32),
                                 cfg.get("workers", 2), quiet=True)
    print("serve load harness (fresh run vs committed baseline)")
    return compare_serve(baseline, fresh, tolerance)


def compare_analyze(baseline: dict, fresh: dict,
                    threshold: float,
                    abs_margin_s: float = 0.25) -> list[str]:
    """Failure messages for the analysis-engine suite.

    Absolute bars first (the incremental contract), then a relative
    warm-time comparison; like the kernels suite, a relative slowdown
    must also clear an absolute margin to fail, since a ~40 ms warm
    run jitters by large factors on a loaded machine.
    """
    budget = fresh.get("incremental_budget_s", 2.0)
    failures: list[str] = []
    bars = [
        (f"incremental {fresh['incremental_s']:.3f}s "
         f"(< {budget:.0f}s budget)",
         fresh["incremental_s"] < budget),
        ("cold and incremental findings byte-identical",
         fresh["findings_identical"]),
        (f"serial and --jobs {fresh.get('parallel_jobs', '?')} findings "
         "byte-identical",
         fresh.get("parallel_findings_identical", True)),
        (f"warm run reuses every summary "
         f"({fresh['warm_reused']}/{fresh['files']})",
         fresh["warm_reused"] == fresh["files"]
         and fresh["warm_extracted"] == 0),
    ]
    for label, ok in bars:
        print(f"  bar: {label:<52} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"acceptance bar failed: {label}")
    base_s = baseline["incremental_s"]
    ratio = fresh["incremental_s"] / max(base_s, 1e-9)
    slow = (ratio > 1 + threshold
            and fresh["incremental_s"] - base_s > abs_margin_s)
    print(f"  incremental: baseline {base_s * 1e3:.1f} ms  "
          f"now {fresh['incremental_s'] * 1e3:.1f} ms  ({ratio:.2f}x) "
          f"{'SLOW' if slow else 'ok'}")
    if slow:
        failures.append(
            f"incremental analyze {fresh['incremental_s'] * 1e3:.0f} ms is "
            f"{ratio:.2f}x the baseline {base_s * 1e3:.0f} ms "
            f"(> {1 + threshold:.2f}x allowed)")
    return failures


def compare_scale(baseline: dict, fresh: dict,
                  threshold: float) -> list[str]:
    """Failure messages for the million-pin scale suite.

    The absolute bars (determinism, worker RSS, shm hygiene, and the
    hardware-conditional speedup/parity bound) live in
    ``bench_scale.check``; on top of those, the serial V-cycle time and
    its traced memory peak are compared against the committed baseline.
    """
    import bench_scale
    failures = [f"acceptance bar failed: {f}"
                for f in bench_scale.check(fresh)]
    for f in failures:
        print(f"  bar: {f:<60} FAIL")
    s = fresh["summary"]
    print(f"  bars: identical={s['identical']} speedup={s['speedup']}x "
          f"(cpu_count={fresh['cpu_count']}) "
          f"rss/payload={s['rss_vs_payload']}x "
          f"leftovers={len(s['shm_leftovers'])}")
    base_s = baseline["runs"][0]["seconds"]
    fresh_s = fresh["runs"][0]["seconds"]
    ratio = fresh_s / max(base_s, 1e-9)
    slow = ratio > 1 + threshold
    print(f"  serial V-cycle: baseline {base_s:.2f} s  "
          f"now {fresh_s:.2f} s  ({ratio:.2f}x) "
          f"{'SLOW' if slow else 'ok'}")
    if slow:
        failures.append(
            f"serial V-cycle {fresh_s:.2f} s is {ratio:.2f}x the baseline "
            f"{base_s:.2f} s (> {1 + threshold:.2f}x allowed)")
    base_peak = baseline.get("vcycle_traced_peak_bytes")
    if base_peak:
        fresh_peak = fresh["vcycle_traced_peak_bytes"]
        ratio = fresh_peak / base_peak
        over = ratio > bench_scale.TRACED_PEAK_FACTOR
        print(f"  traced V-cycle peak: baseline {base_peak / 2**20:.1f} MB  "
              f"now {fresh_peak / 2**20:.1f} MB  ({ratio:.3f}x) "
              f"{'OVER' if over else 'ok'}")
        if over:
            failures.append(
                f"traced V-cycle peak {fresh_peak / 2**20:.1f} MB is "
                f"{ratio:.3f}x the baseline {base_peak / 2**20:.1f} MB "
                f"(> {bench_scale.TRACED_PEAK_FACTOR}x allowed)")
    return failures


def run_scale_suite(args, tolerance: float) -> list[str] | None:
    import bench_scale
    baseline = _load_baseline(Path(args.scale_baseline), "bench_scale.py")
    if baseline is None:
        return None
    cfg = baseline.get("config", {})
    fresh = bench_scale.run(
        {key: cfg[key] for key in ("n", "m_intra", "m_inter", "edge_size")},
        jobs=tuple(cfg.get("jobs", (1, 4))), seed=cfg.get("seed", 7),
        quiet=True)
    print("million-pin scale suite (fresh run vs committed baseline)")
    return compare_scale(baseline, fresh, tolerance)


def compare_sim(baseline: dict, fresh: dict) -> list[str]:
    """Failure messages for the simulation suite (exact comparison).

    Structural bars come from ``bench_sim.check``; on top of those,
    every baseline cell must reappear in the fresh run with the same
    trace digest — simulated time has no jitter, so equality is the
    only correct tolerance.
    """
    import bench_sim
    failures = [f"acceptance bar failed: {f}"
                for f in bench_sim.check(fresh)]

    def keyed(result: dict) -> dict:
        return {(c["workload"], c["topology"], c["partitioner"],
                 c["scheduler"], c["imode"]): c
                for c in result["cells"]}

    base, now = keyed(baseline), keyed(fresh)
    matched = drifted = missing = 0
    for key, bc in sorted(base.items()):
        fc = now.get(key)
        if fc is None:
            missing += 1
            failures.append(f"cell {'/'.join(key)} missing from fresh run")
        elif fc["digest"] != bc["digest"]:
            drifted += 1
            failures.append(
                f"cell {'/'.join(key)}: trace digest drifted "
                f"(makespan {bc['makespan']:g} -> {fc['makespan']:g})")
        else:
            matched += 1
    print(f"  cells: {matched} identical, {drifted} drifted, "
          f"{missing} missing (of {len(base)} baseline cells)")
    return failures


def run_sim_suite(args, tolerance: float) -> list[str] | None:
    import bench_sim
    baseline = _load_baseline(Path(args.sim_baseline), "bench_sim.py")
    if baseline is None:
        return None
    fresh = bench_sim.run(baseline.get("config"), jobs=2, quiet=True)
    print("simulation matrix (fresh run vs committed baseline, exact)")
    return compare_sim(baseline, fresh)


def run_mesh_suite(args, tolerance: float) -> list[str] | None:
    """Failure messages for the sharded-serving chaos suite.

    Two checks: the committed full-scale baseline must still satisfy
    every mesh gate (``bench_mesh.check``: zero lost acknowledged
    jobs, hedged p99 < unhedged, streaming ingest >= 3x JSON, no shm
    leak), and a fresh smoke-scale run must satisfy the same gates on
    this machine.  The gates are absolute acceptance bars, not timing
    ratios, so baseline and fresh runs need not share a scale — the
    throughput comparison below is informational only.
    """
    import bench_mesh
    baseline = _load_baseline(Path(args.mesh_baseline), "bench_mesh.py")
    if baseline is None:
        return None
    print("mesh gates on the committed full-scale baseline")
    failures = [f"baseline gate failed: {f}"
                for f in bench_mesh.check(baseline)]
    print("mesh gates on a fresh smoke-scale run")
    fresh = bench_mesh.run(shards=2, total=200, distinct=32, kills=1,
                           clients=4, hedge_jobs=12, slow_s=0.6,
                           stream_pins=200_000, quiet=True)
    failures += [f"fresh smoke gate failed: {f}"
                 for f in bench_mesh.check(fresh)]
    base_t = baseline["chaos"]["throughput_jps"]
    fresh_t = fresh["chaos"]["throughput_jps"]
    print(f"  chaos throughput: baseline {base_t:.1f} jps "
          f"(full scale)  now {fresh_t:.1f} jps (smoke scale)")
    return failures


def run_analyze_suite(args, tolerance: float) -> list[str] | None:
    import bench_analyze
    baseline = _load_baseline(Path(args.analyze_baseline),
                              "bench_analyze.py")
    if baseline is None:
        return None
    fresh = bench_analyze.run(baseline.get("config", {}).get("repeats", 3))
    print("analysis engine (fresh run vs committed baseline)")
    return compare_analyze(baseline, fresh, tolerance)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", choices=("kernels", "serve", "analyze",
                                        "scale", "sim", "mesh", "all"),
                    default="kernels",
                    help="which benchmark suite(s) to gate on")
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                    help="committed kernels baseline JSON")
    ap.add_argument("--serve-baseline",
                    default=str(DEFAULT_SERVE_BASELINE),
                    help="committed serve baseline JSON")
    ap.add_argument("--analyze-baseline",
                    default=str(DEFAULT_ANALYZE_BASELINE),
                    help="committed analyze baseline JSON")
    ap.add_argument("--scale-baseline",
                    default=str(DEFAULT_SCALE_BASELINE),
                    help="committed scale baseline JSON")
    ap.add_argument("--sim-baseline",
                    default=str(DEFAULT_SIM_BASELINE),
                    help="committed simulation baseline JSON")
    ap.add_argument("--mesh-baseline",
                    default=str(DEFAULT_MESH_BASELINE),
                    help="committed mesh chaos baseline JSON")
    ap.add_argument("--tolerance", "--threshold", type=float,
                    dest="tolerance", default=None,
                    help="allowed fractional slowdown (0.25 = 25%%); "
                         "defaults to $REPRO_BENCH_TOLERANCE or 0.25")
    ap.add_argument("--repeats", type=int, default=5,
                    help="best-of-N timing repeats for the fresh run")
    ap.add_argument("--abs-margin-ms", type=float, default=0.5,
                    help="absolute slowdown (ms) a regression must also "
                         "exceed, filtering sub-ms timing jitter")
    args = ap.parse_args(argv)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25"))

    suites = (("kernels", "serve", "analyze", "scale", "sim", "mesh")
              if args.suite == "all" else (args.suite,))
    runners = {"kernels": run_kernels_suite, "serve": run_serve_suite,
               "analyze": run_analyze_suite, "scale": run_scale_suite,
               "sim": run_sim_suite, "mesh": run_mesh_suite}
    failed = False
    for suite in suites:
        runner = runners[suite]
        failures = runner(args, tolerance)
        if failures is None:
            return 2
        if failures:
            failed = True
            print(f"\nFAIL [{suite}]: {len(failures)} regression(s):",
                  file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
        else:
            print(f"\nOK [{suite}]: within {tolerance:.0%} of baseline")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
