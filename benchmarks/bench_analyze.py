"""Analysis-engine benchmark: cold vs incremental self-analysis.

Runs ``repro analyze`` over the repository's own ``src``, ``tests``
and ``benchmarks`` trees twice — once cold (every module parsed) and
once warm (every summary served from a scratch ``.analyze-cache/``) —
and writes ``BENCH_analyze.json`` next to this file.  The committed
baseline is what ``scripts/check_bench_regression.py --suite analyze``
(and the opt-in ``-m benchcheck`` pytest marker) gates on:

* the warm run must finish under the 2 s incremental budget,
* warm findings must be byte-identical to cold findings — the
  incremental engine's core contract, and
* a ``--jobs N`` parallel cold run must produce findings
  byte-identical to the serial run (the speedup itself is recorded
  but not gated: on a single-core machine the process pool is pure
  overhead and correctly falls back, so only the identity contract
  is hardware-independent).

Run::

    PYTHONPATH=src python benchmarks/bench_analyze.py             # write
    PYTHONPATH=src python benchmarks/bench_analyze.py --no-write  # dry run
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analyze.engine import run_analysis  # noqa: E402

DEFAULT_OUT = Path(__file__).parent / "BENCH_analyze.json"
PATHS = ("src", "tests", "benchmarks")

#: Acceptance bar for the warm (all-summaries-cached) run.
INCREMENTAL_BUDGET_S = 2.0

#: Worker processes for the parallel cold run.  At least 2 even on a
#: single core, so the process-pool path (and its identity contract)
#: is genuinely exercised everywhere; the speedup is what's
#: hardware-conditional, and it is recorded, not gated.
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


def _rendered(report) -> list[str]:
    return [f.render() for f in report.findings]


def run(repeats: int = 3) -> dict:
    """Best-of-N cold and warm self-analysis timings.

    Cold and parallel runs open no cache; the warm runs use a scratch
    directory, so a warm ``.analyze-cache/`` in the working tree cannot
    skew the committed numbers.
    """
    paths = [ROOT / p for p in PATHS]
    cold_s = []
    cold_report = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        cold_report = run_analysis(paths)
        cold_s.append(time.perf_counter() - t0)

    par_s = []
    par_report = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        par_report = run_analysis(paths, jobs=PARALLEL_JOBS)
        par_s.append(time.perf_counter() - t0)

    with tempfile.TemporaryDirectory(prefix="analyze-bench-") as tmp:
        cache = Path(tmp) / "cache"
        warm_fill = run_analysis(paths, incremental=True, cache_dir=cache)
        warm_s = []
        warm_report = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            warm_report = run_analysis(paths, incremental=True,
                                       cache_dir=cache)
            warm_s.append(time.perf_counter() - t0)

    return {
        "config": {"paths": list(PATHS), "repeats": repeats},
        "cpu_count": os.cpu_count(),
        "files": cold_report.files,
        "findings": len(cold_report.findings),
        "cold_s": round(min(cold_s), 4),
        "incremental_s": round(min(warm_s), 4),
        "cache_fill_extracted": warm_fill.extracted,
        "warm_reused": warm_report.reused,
        "warm_extracted": warm_report.extracted,
        "findings_identical": (_rendered(cold_report)
                               == _rendered(warm_report)),
        "incremental_budget_s": INCREMENTAL_BUDGET_S,
        "parallel_jobs": PARALLEL_JOBS,
        "parallel_cold_s": round(min(par_s), 4),
        "parallel_speedup": round(min(cold_s) / max(min(par_s), 1e-9), 3),
        "parallel_findings_identical": (_rendered(cold_report)
                                        == _rendered(par_report)),
    }


def report(result: dict) -> None:
    speedup = result["cold_s"] / max(result["incremental_s"], 1e-9)
    print(f"analyzed {result['files']} files, "
          f"{result['findings']} finding(s) on {result['cpu_count']} CPU(s)")
    print(f"  cold        {result['cold_s'] * 1e3:8.1f} ms")
    print(f"  incremental {result['incremental_s'] * 1e3:8.1f} ms "
          f"({speedup:.1f}x, {result['warm_reused']} summaries reused)")
    print(f"  parallel    {result['parallel_cold_s'] * 1e3:8.1f} ms "
          f"(--jobs {result['parallel_jobs']}, "
          f"{result['parallel_speedup']:.2f}x vs serial cold)")
    budget_ok = result["incremental_s"] < result["incremental_budget_s"]
    print(f"  incremental < {result['incremental_budget_s']:.0f}s budget: "
          f"{'ok' if budget_ok else 'FAIL'}")
    print(f"  cold == incremental findings: "
          f"{'ok' if result['findings_identical'] else 'FAIL'}")
    print(f"  serial == parallel findings:  "
          f"{'ok' if result['parallel_findings_identical'] else 'FAIL'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(DEFAULT_OUT),
                    help="output JSON path (default: committed baseline)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats")
    ap.add_argument("--no-write", action="store_true",
                    help="print results without writing the JSON")
    args = ap.parse_args(argv)

    result = run(args.repeats)
    report(result)
    if not args.no_write:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    if not (result["findings_identical"]
            and result["parallel_findings_identical"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
