#!/usr/bin/env python
"""Chaos load harness for the ``repro.mesh`` sharded serving layer.

Five phases against a real mesh — shard ``repro serve`` subprocesses
behind the in-process router from :func:`repro.mesh.harness.mesh_up`,
driven over real sockets (nothing mocked):

``ring``
    Offline consistent-hash properties at request scale: two
    independently built rings agree on every key, the spread across
    shards is balanced, and adding a shard moves only ~1/(N+1) of the
    keys — all of them *to* the new shard.
``chaos``
    Closed-loop clients drive the full request budget across >= 3
    shards while a controller SIGKILLs a shard mid-run (and restarts
    it) at every kill point.  Every acknowledged job id must reach a
    final state that is not a loss.  The headline gate: **zero lost
    acknowledged jobs**.
``cache_failover``
    Solve a key, SIGKILL the shard that owns it, resubmit: the answer
    must come back ``cached`` from a *different* shard (the
    ``.lab-cache`` content address is location-independent).
``hedging``
    The same uncached workload twice against a mesh with one injected
    slow shard (``--debug-slow-ms``): hedging off, then on.  Gate:
    hedged p99 strictly below unhedged p99.
``streaming``
    The same million-pin CSR graph ingested twice through the router:
    once as inline JSON, once over the binary ``POST /v1/stream``
    relay.  Ack latency (upload + parse, no solve) is the measure;
    gate: streaming >= 3x faster, and the two paths agree on the
    result labels.

Teardown gates on no ``/dev/shm`` segment surviving it, SIGKILLed
shards included: nothing unlinks their leftovers before the check.

Writes ``benchmarks/BENCH_mesh.json``; the committed baseline is
checked by ``scripts/check_bench_regression.py --suite mesh``.

Run::

    PYTHONPATH=src python benchmarks/bench_mesh.py            # full
    PYTHONPATH=src python benchmarks/bench_mesh.py --smoke    # < 60 s
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.generators import streaming_uniform_hypergraph  # noqa: E402
from repro.mesh import HashRing  # noqa: E402
from repro.mesh.harness import mesh_up  # noqa: E402
from repro.serve.client import graph_payload  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent / "BENCH_mesh.json"


def small_job(seed: int, mode: str = "async") -> dict:
    return {"op": "partition",
            "graph": {"generator": {"kind": "random", "n": 40,
                                    "seed": seed}},
            "k": 2, "eps": 0.1, "algorithm": "greedy", "seed": seed,
            "mode": mode, "deadline_s": 120.0}


def percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


# ----------------------------------------------------------------------
# Phase: ring (offline, request-scale)
# ----------------------------------------------------------------------
def ring_phase(keys: int, shards: int) -> dict:
    ids = [f"s{i}" for i in range(shards)]
    a, b = HashRing(ids), HashRing(ids)
    sample = [f"csr:{i:064x}" for i in range(keys)]
    t0 = time.perf_counter()
    assign_a = [a.assign(k) for k in sample]
    assign_s = time.perf_counter() - t0
    deterministic = assign_a == [b.assign(k) for k in sample]
    counts: dict[str, int] = {}
    for sid in assign_a:
        counts[sid] = counts.get(sid, 0) + 1
    grown = HashRing(ids + [f"s{shards}"])
    moved = moved_elsewhere = 0
    for key, owner in zip(sample, assign_a):
        now = grown.assign(key)
        if now != owner:
            moved += 1
            if now != f"s{shards}":
                moved_elsewhere += 1
    return {
        "keys": keys,
        "assign_per_s": round(keys / max(assign_s, 1e-9)),
        "deterministic": deterministic,
        "spread": {sid: round(c / keys, 4)
                   for sid, c in sorted(counts.items())},
        "moved_fraction": round(moved / keys, 4),
        "moved_to_wrong_shard": moved_elsewhere,
        "expected_moved_fraction": round(1 / (shards + 1), 4),
    }


# ----------------------------------------------------------------------
# Phase: chaos (SIGKILL + restart under load)
# ----------------------------------------------------------------------
def chaos_phase(cache_dir: str, *, shards: int, total: int,
                distinct: int, kills: int, clients: int,
                quiet: bool) -> dict:
    counter = {"next": 0}
    lock = threading.Lock()
    acked = completed = lost = unacked_errors = 0
    latencies: list[float] = []
    kill_log: list[dict] = []
    failure_samples: list[dict] = []    # first N loss diagnostics

    with mesh_up(shards, cache_dir, probe_interval_s=0.1) as mesh:
        stop_controller = threading.Event()
        kill_points = [total * (i + 1) // (kills + 1)
                       for i in range(kills)]

        def controller() -> None:
            for i, point in enumerate(kill_points):
                while not stop_controller.is_set():
                    with lock:
                        done_now = counter["next"]
                    if done_now >= point:
                        break
                    stop_controller.wait(0.05)
                if stop_controller.is_set():
                    return
                victim = f"s{i % shards}"
                t_kill = time.perf_counter()
                mesh.supervisor.kill(victim)
                time.sleep(0.5)     # let the router notice + requeue
                mesh.supervisor.restart(victim)
                kill_log.append({"victim": victim, "at_request": point,
                                 "down_s": round(time.perf_counter()
                                                 - t_kill, 3)})

        def worker() -> None:
            nonlocal acked, completed, lost, unacked_errors
            with mesh.client(timeout_s=120) as c:
                while True:
                    with lock:
                        i = counter["next"]
                        if i >= total:
                            return
                        counter["next"] = i + 1
                    req = small_job(i % distinct)
                    handle = None
                    t0 = time.perf_counter()
                    for _attempt in range(4):
                        try:
                            handle = c.submit(req)
                            break
                        except ReproError:
                            # pre-ack failure: never acknowledged, so
                            # retrying is the client's job, not ours
                            with lock:
                                unacked_errors += 1
                            time.sleep(0.1)
                    if handle is None:
                        continue
                    with lock:
                        acked += 1
                    detail = None
                    try:
                        out = handle if handle.get("status") == "done" \
                            else c.wait(handle["job_id"], timeout_s=120)
                        ok = out.get("status") == "done"
                        if not ok:
                            detail = {"kind": "final-status", "state": out}
                    except ReproError as exc:
                        ok = False
                        detail = {"kind": type(exc).__name__,
                                  "error": str(exc)[:200]}
                        try:
                            detail["last_state"] = c.job(handle["job_id"])
                        except ReproError as exc2:
                            detail["last_state"] = f"poll failed: {exc2}"
                    dt = time.perf_counter() - t0
                    with lock:
                        if ok:
                            completed += 1
                            latencies.append(dt)
                        else:
                            lost += 1
                            if len(failure_samples) < 50:
                                failure_samples.append(
                                    {"request": i,
                                     "job_id": handle.get("job_id"),
                                     **(detail or {})})

        ctrl = threading.Thread(target=controller)
        threads = [threading.Thread(target=worker)
                   for _ in range(clients)]
        t0 = time.perf_counter()
        ctrl.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop_controller.set()
        ctrl.join()
        wall = time.perf_counter() - t0
        counters = dict(mesh.router.metrics.counters)
    result = {
        "requests": total,
        "shards": shards,
        "distinct_keys": distinct,
        "kills": kill_log,
        "acked": acked,
        "completed": completed,
        "lost_acked": lost,
        "unacked_errors": unacked_errors,
        "wall_s": round(wall, 3),
        "throughput_jps": round(acked / max(wall, 1e-9), 1),
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "router_requeued": counters.get("requeued", 0),
        "router_jobs_lost": counters.get("jobs_lost", 0),
        "router_failovers": counters.get("failovers", 0),
        "router_down_marks": counters.get("shard_down_marks", 0),
        "failure_samples": failure_samples,
    }
    if not quiet:
        print(f"  chaos: {acked} acked, {lost} lost, "
              f"{result['throughput_jps']} jps, "
              f"requeued={result['router_requeued']}")
    return result


# ----------------------------------------------------------------------
# Phase: cache failover across a dead shard
# ----------------------------------------------------------------------
def cache_failover_phase(cache_dir: str) -> dict:
    with mesh_up(2, cache_dir, probe_interval_s=0.1) as mesh:
        with mesh.client() as c:
            first = c.partition(small_job(987_001, mode="sync"))
            owner = first["shard"]
            mesh.supervisor.kill(owner)
            t0 = time.perf_counter()
            again = c.partition(small_job(987_001, mode="sync"))
            failover_s = time.perf_counter() - t0
    return {
        "owner": owner,
        "resubmit_shard": again.get("shard"),
        "resubmit_cached": bool(again.get("cached")),
        "same_result": again.get("result") == first.get("result"),
        "failover_s": round(failover_s, 4),
    }


# ----------------------------------------------------------------------
# Phase: hedging vs an injected slow shard
# ----------------------------------------------------------------------
def _hedge_run(cache_dir: str, *, hedge: bool, jobs: int, seed_base: int,
               slow_s: float, clients: int) -> dict:
    lock = threading.Lock()
    latencies: list[float] = []
    counter = {"next": 0}
    with mesh_up(2, cache_dir, slow={"s1": slow_s}, hedge=hedge,
                 hedge_min_s=0.05, hedge_max_s=min(1.0, slow_s / 2),
                 probe_interval_s=0.2) as mesh:

        def worker() -> None:
            with mesh.client(timeout_s=120) as c:
                while True:
                    with lock:
                        i = counter["next"]
                        if i >= jobs:
                            return
                        counter["next"] = i + 1
                    t0 = time.perf_counter()
                    out = c.partition(small_job(seed_base + i,
                                                mode="sync"))
                    dt = time.perf_counter() - t0
                    assert out["status"] == "done", out
                    with lock:
                        latencies.append(dt)

        threads = [threading.Thread(target=worker)
                   for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = dict(mesh.router.metrics.counters)
    return {
        "hedge": hedge,
        "jobs": jobs,
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "hedge_started": counters.get("hedge_started", 0),
        "hedge_win_hedge": counters.get("hedge_win_hedge", 0),
        "hedge_win_primary": counters.get("hedge_win_primary", 0),
    }


def hedging_phase(base_dir: Path, *, jobs: int, slow_s: float,
                  clients: int, quiet: bool) -> dict:
    off = _hedge_run(str(base_dir / "unhedged"), hedge=False, jobs=jobs,
                     seed_base=500_000, slow_s=slow_s, clients=clients)
    on = _hedge_run(str(base_dir / "hedged"), hedge=True, jobs=jobs,
                    seed_base=600_000, slow_s=slow_s, clients=clients)
    if not quiet:
        print(f"  hedging: p99 {off['p99_ms']}ms -> {on['p99_ms']}ms "
              f"({on['hedge_started']} hedges)")
    return {"slow_shard_s": slow_s, "unhedged": off, "hedged": on}


# ----------------------------------------------------------------------
# Phase: streaming vs JSON ingestion through the router
# ----------------------------------------------------------------------
def streaming_phase(cache_dir: str, *, pins: int,
                    quiet: bool) -> dict:
    edge_size = 4
    m = pins // edge_size
    n = max(100, pins // 10)
    g = streaming_uniform_hypergraph(n, m, edge_size, rng=77)
    req = {"op": "partition", "k": 2, "eps": 0.1,
           "algorithm": "greedy", "seed": 7, "mode": "async",
           "deadline_s": 600.0}
    with mesh_up(1, cache_dir, client_timeout_s=600.0) as mesh:
        with mesh.client(timeout_s=600) as c:
            # binary path first: ack returns once the body is resident
            # in the shard's arrays and the solve is queued
            t0 = time.perf_counter()
            handle = c.stream(req, graph=g)
            stream_ack_s = time.perf_counter() - t0
            done = handle if handle.get("status") == "done" \
                else c.wait(handle["job_id"], timeout_s=600)
            assert done["status"] == "done", done
            labels = done["result"]["labels"]

            # JSON path, same graph: the solve itself is now a cache
            # hit, so the ack latency is purely upload + parse — the
            # very cost the binary path exists to remove
            t0 = time.perf_counter()
            handle = c.submit({**req, "graph": graph_payload(g)})
            json_ack_s = time.perf_counter() - t0
            done2 = handle if handle.get("status") == "done" \
                else c.wait(handle["job_id"], timeout_s=600)
            assert done2["status"] == "done", done2
    return {
        "pins": int(m * edge_size),
        "n": int(n),
        "m": int(m),
        "stream_ack_s": round(stream_ack_s, 4),
        "json_ack_s": round(json_ack_s, 4),
        "ingest_speedup": round(json_ack_s / max(stream_ack_s, 1e-9), 2),
        "results_agree": done2["result"]["labels"] == labels,
    }


# ----------------------------------------------------------------------
# Driver + gates
# ----------------------------------------------------------------------
def run(*, shards: int = 3, total: int = 100_000, distinct: int = 256,
        kills: int = 2, clients: int = 8, hedge_jobs: int = 48,
        slow_s: float = 0.6, stream_pins: int = 1_000_000,
        quiet: bool = False) -> dict:
    import tempfile
    results: dict = {"config": {
        "shards": shards, "total": total, "distinct": distinct,
        "kills": kills, "clients": clients, "hedge_jobs": hedge_jobs,
        "slow_s": slow_s, "stream_pins": stream_pins,
    }}
    with tempfile.TemporaryDirectory(prefix="mesh-bench-") as td:
        base = Path(td)
        if not quiet:
            print("phase: ring")
        results["ring"] = ring_phase(total, shards)
        if not quiet:
            print("phase: chaos")
        results["chaos"] = chaos_phase(
            str(base / "chaos"), shards=shards, total=total,
            distinct=distinct, kills=kills, clients=clients, quiet=quiet)
        if not quiet:
            print("phase: cache_failover")
        results["cache_failover"] = cache_failover_phase(
            str(base / "failover"))
        if not quiet:
            print("phase: hedging")
        results["hedging"] = hedging_phase(base, jobs=hedge_jobs,
                                           slow_s=slow_s,
                                           clients=min(4, clients),
                                           quiet=quiet)
        if not quiet:
            print("phase: streaming")
        results["streaming"] = streaming_phase(
            str(base / "stream"), pins=stream_pins, quiet=quiet)
    survivors = sorted(glob.glob("/dev/shm/repro_stream_*")
                       + glob.glob("/dev/shm/repro_shm_*"))
    results["summary"] = {
        "lost_acked": results["chaos"]["lost_acked"]
        + results["chaos"]["router_jobs_lost"],
        "acked": results["chaos"]["acked"],
        "chaos_throughput_jps": results["chaos"]["throughput_jps"],
        "requeued": results["chaos"]["router_requeued"],
        "failover_cached": results["cache_failover"]["resubmit_cached"],
        "failover_other_shard":
            results["cache_failover"]["resubmit_shard"]
            != results["cache_failover"]["owner"],
        "unhedged_p99_ms": results["hedging"]["unhedged"]["p99_ms"],
        "hedged_p99_ms": results["hedging"]["hedged"]["p99_ms"],
        "ingest_speedup": results["streaming"]["ingest_speedup"],
        "shm_leaked_after_teardown": len(survivors),
    }
    return results


def check(results: dict) -> list[str]:
    """The committed gates; failure strings, empty when all hold."""
    s = results["summary"]
    ring = results["ring"]
    chaos = results["chaos"]
    stream = results["streaming"]
    bars = [
        (f"zero lost acknowledged jobs (lost={s['lost_acked']})",
         s["lost_acked"] == 0),
        (f"every acked job resolved ({chaos['completed']}"
         f"/{chaos['acked']})",
         chaos["completed"] == chaos["acked"]),
        ("ring assignment deterministic", ring["deterministic"]),
        (f"ring movement {ring['moved_fraction']} <= "
         f"3x expected {ring['expected_moved_fraction']}",
         ring["moved_fraction"]
         <= 3 * ring["expected_moved_fraction"]),
        ("moved keys land only on the new shard",
         ring["moved_to_wrong_shard"] == 0),
        ("cache-hit resubmission across a dead shard",
         s["failover_cached"] and s["failover_other_shard"]),
        (f"hedged p99 {s['hedged_p99_ms']}ms < unhedged "
         f"{s['unhedged_p99_ms']}ms",
         s["hedged_p99_ms"] < s["unhedged_p99_ms"]),
        (f"streaming ingest {s['ingest_speedup']}x >= 3x JSON",
         s["ingest_speedup"] >= 3.0),
        ("streaming and JSON paths agree on labels",
         stream["results_agree"]),
        (f"no shm segments survive teardown "
         f"({s['shm_leaked_after_teardown']})",
         s["shm_leaked_after_teardown"] == 0),
    ]
    failures = []
    for label, ok in bars:
        print(f"  gate: {label:<58} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(label)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="sub-60s tier for CI: 2 shards, 200 jobs, "
                         "one kill, smaller stream")
    ap.add_argument("--total", type=int, default=None)
    ap.add_argument("--shards", type=int, default=None)
    ap.add_argument("--out", default=str(OUT_PATH))
    ap.add_argument("--no-write", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.smoke:
        cfg = dict(shards=2, total=200, distinct=32, kills=1,
                   clients=4, hedge_jobs=12, slow_s=0.6,
                   stream_pins=200_000)
    else:
        cfg = dict(shards=3, total=100_000, distinct=256, kills=2,
                   clients=8, hedge_jobs=48, slow_s=0.6,
                   stream_pins=1_000_000)
    if args.total is not None:
        cfg["total"] = args.total
    if args.shards is not None:
        cfg["shards"] = args.shards

    t0 = time.perf_counter()
    results = run(quiet=args.quiet, **cfg)
    results["wall_s"] = round(time.perf_counter() - t0, 2)
    failures = check(results)
    if not args.no_write and not args.smoke:
        Path(args.out).write_text(json.dumps(results, indent=2,
                                             sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print(f"total wall: {results['wall_s']}s")
    if failures:
        print("FAILED gates:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1
    print("all mesh gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
