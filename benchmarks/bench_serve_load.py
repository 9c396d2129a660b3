#!/usr/bin/env python
"""Closed-loop load harness for ``repro serve``.

Four phases against real server subprocesses (the full CLI + HTTP
stack, nothing mocked):

``unbatched``
    N closed-loop clients, ``--batch-max 1``: every job pays full
    process-dispatch overhead.  Establishes the throughput floor.
``batched``
    Same workload, micro-batching on.  The headline claim: batched
    throughput at small-job saturation is >= 3x the unbatched floor.
``cache_hit``
    One client resubmitting an already-cached request; p50 must sit
    under 5 ms — the content-addressed fast path never touches a
    worker.
``simulate``
    A short closed-loop burst of ``op: simulate`` jobs (repro.sim
    through the full HTTP stack), then the same job replayed with the
    cache off: the trace digest must be byte-identical — server-side
    simulation is deterministic per (params, seed).
``overload``
    Open-loop submissions at 10x the measured batched capacity.  The
    server must shed with 429s while the p99 latency of *accepted*
    jobs stays within 2x of the pre-overload p99 (bounded queue =
    bounded waiting time).

Writes ``benchmarks/BENCH_serve.json``; the committed baseline is
checked by ``scripts/check_bench_regression.py --suite serve``.

Run::

    PYTHONPATH=src python benchmarks/bench_serve_load.py
    PYTHONPATH=src python benchmarks/bench_serve_load.py --jobs 100 -q
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.errors import QueueFullError, ReproError  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

_READY_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")

#: The saturation workload: small greedy partitions, a few ms of solve
#: each, so dispatch overhead dominates and batching has something to
#: amortise.
def small_job(seed: int) -> dict:
    return {"op": "partition",
            "graph": {"generator": {"kind": "random", "n": 30,
                                    "seed": seed % 17}},
            "k": 2, "eps": 0.1, "algorithm": "greedy", "seed": seed,
            "mode": "sync", "deadline_s": 60.0}


class ServerProc:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, cache_dir: Path, *, batch_max: int,
                 workers: int, queue_limit: int,
                 batch_window_s: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir),
             "--workers", str(workers),
             "--batch-max", str(batch_max),
             "--batch-window", str(batch_window_s),
             "--queue-limit", str(queue_limit)],
            env=env, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 30
        self.port = 0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            m = _READY_RE.search(line or "")
            if m:
                self.port = int(m.group(1))
                return
            if self.proc.poll() is not None:
                break
        self.proc.kill()
        raise RuntimeError("server subprocess failed to start")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


def closed_loop(port: int, total_jobs: int, clients: int,
                seed_base: int) -> dict:
    """``clients`` threads each sync-solving jobs until the shared
    budget runs out; returns throughput and latency quantiles."""
    counter = {"next": 0}
    lock = threading.Lock()
    latencies: list[float] = []
    errors: list[str] = []

    def worker() -> None:
        with ServeClient("127.0.0.1", port, timeout_s=120) as c:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= total_jobs:
                        return
                    counter["next"] = i + 1
                t0 = time.perf_counter()
                try:
                    out = c.partition(small_job(seed_base + i))
                except ReproError as exc:
                    with lock:
                        errors.append(str(exc))
                    continue
                dt = time.perf_counter() - t0
                with lock:
                    if out.get("status") == "done":
                        latencies.append(dt)
                    else:
                        errors.append(out.get("error", out["status"]))

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return {
        "jobs": len(latencies),
        "errors": len(errors),
        "wall_s": round(wall, 4),
        "throughput_jps": round(len(latencies) / wall, 2),
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
    }


def cache_hit_phase(port: int, repeats: int) -> dict:
    req = small_job(10_000_000)
    with ServeClient("127.0.0.1", port, timeout_s=60) as c:
        first = c.partition(req)     # prime the cache
        assert first["status"] == "done", first
        latencies = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = c.partition(req)
            latencies.append(time.perf_counter() - t0)
            assert out["cached"] is True, "expected a cache hit"
    return {
        "requests": repeats,
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
    }


def sim_job(seed: int) -> dict:
    return {"op": "simulate",
            "graph": {"generator": {"kind": "hyperdag-stencil", "n": 8,
                                    "seed": seed % 5}},
            "k": 4, "scheduler": "heft", "imode": "exact",
            "seed": seed, "mode": "sync", "deadline_s": 60.0}


def simulate_phase(port: int, jobs: int) -> dict:
    latencies: list[float] = []
    digests: list[str] = []
    with ServeClient("127.0.0.1", port, timeout_s=120) as c:
        for i in range(jobs):
            t0 = time.perf_counter()
            out = c.partition(sim_job(i))
            latencies.append(time.perf_counter() - t0)
            assert out["status"] == "done", out
            digests.append(out["result"]["digest"])
        # replay job 0 with the cache off: a fresh worker-side run must
        # reproduce the trace bit-for-bit (the repro.sim determinism
        # contract, exercised through the full serve stack)
        replay = c.partition({**sim_job(0), "use_cache": False})
        stable = (replay["status"] == "done"
                  and replay["result"]["digest"] == digests[0])
    return {
        "jobs": jobs,
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "digest_stable": bool(stable),
    }


def overload_phase(port: int, offered_jps: float, duration_s: float,
                   seed_base: int) -> dict:
    """Open-loop submissions at ``offered_jps`` for ``duration_s``;
    sheds are counted, accepted handles are drained and measured.

    The drain polls accepted jobs in acceptance order *while* the
    submitters run.  The server keeps only its most recent finished
    jobs (``_RETAIN_JOBS`` in ``repro.serve.jobs``), and a fast host
    accepts more than that in one phase, so a drain that started after
    submission would find the oldest jobs already purged.  A job that
    is gone all the same still fails the run (``JobNotFoundError``).
    """
    accepted: queue.Queue[str | None] = queue.Queue()
    n_accepted = 0
    shed = 0
    lock = threading.Lock()
    interval = 1.0 / offered_jps
    stop_at = time.monotonic() + duration_s
    n_submitters = 4

    def submitter(offset: int) -> None:
        nonlocal n_accepted, shed
        i = offset
        with ServeClient("127.0.0.1", port, timeout_s=60) as c:
            next_fire = time.monotonic()
            while time.monotonic() < stop_at:
                try:
                    h = c.submit({**small_job(seed_base + i),
                                  "mode": "async", "deadline_s": 60.0})
                    with lock:
                        n_accepted += 1
                        accepted.put(h["job_id"])
                except QueueFullError:
                    with lock:
                        shed += 1
                i += n_submitters
                next_fire += interval * n_submitters
                delay = next_fire - time.monotonic()
                if delay > 0:
                    time.sleep(delay)

    def drain() -> tuple[list[float], dict[str, int]]:
        # poll every accepted job to a final state, collect server-side
        # latency (submit -> resolve, queue wait included)
        latencies: list[float] = []
        statuses: dict[str, int] = {}
        with ServeClient("127.0.0.1", port, timeout_s=120) as c:
            while (job_id := accepted.get()) is not None:
                out = c.wait(job_id, timeout_s=120)
                statuses[out["status"]] = statuses.get(out["status"], 0) + 1
                if out["status"] == "done":
                    latencies.append(out["latency_s"])
        return latencies, statuses

    with ThreadPoolExecutor(max_workers=1) as executor:
        drained = executor.submit(drain)
        try:
            threads = [threading.Thread(target=submitter, args=(i,))
                       for i in range(n_submitters)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            accepted.put(None)          # end of submissions
        latencies, statuses = drained.result()
    return {
        "offered_jps": round(offered_jps, 1),
        "duration_s": duration_s,
        "accepted": n_accepted,
        "shed_429": shed,
        "statuses": statuses,
        "accepted_p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "accepted_p99_ms": round(percentile(latencies, 99) * 1e3, 3),
    }


def run(jobs: int, clients: int, workers: int,
        quiet: bool = False) -> dict:
    def say(msg: str) -> None:
        if not quiet:
            print(msg, flush=True)

    results: dict = {"config": {"jobs": jobs, "clients": clients,
                                "workers": workers}}
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        tmp = Path(tmp)

        say(f"== phase 1: unbatched floor ({jobs} jobs, "
            f"{clients} clients, batch_max=1)")
        server = ServerProc(tmp / "cache-unbatched", batch_max=1,
                            workers=workers, queue_limit=256,
                            batch_window_s=0.0)
        try:
            results["unbatched"] = closed_loop(server.port, jobs,
                                               clients, seed_base=0)
        finally:
            server.stop()
        say(f"   {results['unbatched']}")

        say(f"== phase 2: batched ({jobs} jobs, batch_max=16)")
        server = ServerProc(tmp / "cache-batched", batch_max=16,
                            workers=workers, queue_limit=256,
                            batch_window_s=0.01)
        try:
            results["batched"] = closed_loop(server.port, jobs, clients,
                                             seed_base=1_000_000)
            say(f"   {results['batched']}")

            say("== phase 3: cache-hit fast path")
            results["cache_hit"] = cache_hit_phase(server.port,
                                                   repeats=200)
            say(f"   {results['cache_hit']}")

            say("== phase 3b: simulate op (repro.sim over HTTP)")
            results["simulate"] = simulate_phase(server.port, jobs=10)
            say(f"   {results['simulate']}")
        finally:
            server.stop()

        capacity = results["batched"]["throughput_jps"]
        say(f"== phase 4: overload at 10x capacity "
            f"({capacity:.0f} jps measured)")
        server = ServerProc(tmp / "cache-overload", batch_max=16,
                            workers=workers, queue_limit=16,
                            batch_window_s=0.01)
        try:
            results["overload"] = overload_phase(
                server.port, offered_jps=10 * capacity, duration_s=3.0,
                seed_base=2_000_000)
        finally:
            server.stop()
        say(f"   {results['overload']}")

    speedup = (results["batched"]["throughput_jps"]
               / max(results["unbatched"]["throughput_jps"], 1e-9))
    p99_ratio = (results["overload"]["accepted_p99_ms"]
                 / max(results["batched"]["p99_ms"], 1e-9))
    results["summary"] = {
        "batched_speedup": round(speedup, 2),
        "cache_hit_p50_ms": results["cache_hit"]["p50_ms"],
        "overload_shed_429": results["overload"]["shed_429"],
        "overload_p99_ratio": round(p99_ratio, 2),
        "simulate_digest_stable": results["simulate"]["digest_stable"],
    }
    say(f"== summary: {results['summary']}")
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=300,
                    help="jobs per closed-loop phase")
    ap.add_argument("--clients", type=int, default=32,
                    help="closed-loop client threads")
    ap.add_argument("--workers", type=int, default=2,
                    help="server worker slots")
    ap.add_argument("-o", "--output",
                    default=str(ROOT / "benchmarks" / "BENCH_serve.json"))
    ap.add_argument("-q", "--quiet", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="exit nonzero unless the acceptance bars hold "
                         "(3x batching, <5ms cache p50, sheds, p99<=2x)")
    args = ap.parse_args(argv)

    results = run(args.jobs, args.clients, args.workers,
                  quiet=args.quiet)
    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    if args.check:
        s = results["summary"]
        bars = [
            (s["batched_speedup"] >= 3.0,
             f"batched speedup {s['batched_speedup']}x < 3x"),
            (s["cache_hit_p50_ms"] < 5.0,
             f"cache-hit p50 {s['cache_hit_p50_ms']}ms >= 5ms"),
            (s["overload_shed_429"] > 0, "no 429s under 10x overload"),
            (s["overload_p99_ratio"] <= 2.0,
             f"overload p99 ratio {s['overload_p99_ratio']} > 2x"),
            (s["simulate_digest_stable"],
             "simulate replay digest drifted (nondeterministic sim)"),
        ]
        failed = [msg for ok, msg in bars if not ok]
        for msg in failed:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
