"""CLI verbs for the serving layer: ``serve``, ``submit``, ``jobs``.

``repro serve`` runs the server in the foreground until SIGTERM/SIGINT.
``repro serve --self-check`` is the CI smoke tier: it starts a server
on an ephemeral port inside the process, drives one synchronous job,
one asynchronous job, a protocol rejection, and a metrics scrape
through the real HTTP stack, shuts down cleanly, and exits nonzero on
any discrepancy — all in a few seconds.

``repro submit`` sends one job from the command line (inline generator
spec or an ``.hgr`` file) and ``repro jobs`` lists/polls/cancels jobs
on a running server.
"""

from __future__ import annotations

import asyncio
import json
import sys

from ..errors import ReproError
from .server import ServeConfig, Server, run_server

__all__ = ["add_serve_parser", "serve_main"]


def add_serve_parser(sub) -> None:
    s = sub.add_parser("serve", help="run the partitioning service")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8080,
                   help="listen port (0 = ephemeral)")
    s.add_argument("--workers", type=int, default=2,
                   help="max concurrent worker dispatches")
    s.add_argument("--batch-max", type=int, default=8,
                   help="max small jobs coalesced per dispatch")
    s.add_argument("--batch-window", type=float, default=0.01,
                   metavar="S", help="micro-batch collection window")
    s.add_argument("--queue-limit", type=int, default=128,
                   help="admission queue bound (429 past this)")
    s.add_argument("--deadline", type=float, default=60.0, metavar="S",
                   help="default per-request deadline")
    s.add_argument("--cache-dir", default=".lab-cache",
                   help="content-addressed result cache ('' disables)")
    s.add_argument("--journal", default=None, metavar="PATH",
                   help="append JSONL serve events here")
    s.add_argument("--shard-id", default=None, metavar="ID",
                   help="mesh shard identity (echoed in handles/healthz)")
    s.add_argument("--debug-slow-ms", type=int, default=0, metavar="MS",
                   help="inject a per-job worker sleep (mesh chaos/"
                        "hedging harness only)")
    s.add_argument("--self-check", action="store_true",
                   help="start, exercise the API end to end, shut down")

    j = sub.add_parser("submit", help="submit one job to a server")
    j.add_argument("--host", default="127.0.0.1")
    j.add_argument("--port", type=int, default=8080)
    j.add_argument("--hgr", help="hypergraph file to upload")
    j.add_argument("--generator", help="generator kind (see 'generate')")
    j.add_argument("-n", type=int, default=100)
    j.add_argument("-k", type=int, default=2)
    j.add_argument("--eps", type=float, default=0.03)
    j.add_argument("--op", default="partition",
                   choices=["partition", "schedule", "recognize",
                            "simulate"])
    j.add_argument("--algorithm", default="multilevel")
    j.add_argument("--metric", default="connectivity",
                   choices=["connectivity", "cut-net"])
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--deadline", type=float, default=None, metavar="S")
    j.add_argument("--mode", default="auto",
                   choices=["auto", "sync", "async"])
    j.add_argument("--wait", action="store_true",
                   help="poll an async handle until it finishes")

    q = sub.add_parser("jobs", help="list / poll / cancel server jobs")
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, default=8080)
    q.add_argument("job_id", nargs="?", default=None,
                   help="poll this job instead of listing")
    q.add_argument("--cancel", action="store_true",
                   help="cancel the given job")


def _config_from_args(args) -> ServeConfig:
    return ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        batch_max=args.batch_max, batch_window_s=args.batch_window,
        queue_limit=args.queue_limit, default_deadline_s=args.deadline,
        cache_dir=args.cache_dir or None, journal_path=args.journal,
        shard_id=args.shard_id,
        debug_slow_s=args.debug_slow_ms / 1000.0)


def _serve(args) -> int:
    config = _config_from_args(args)
    if args.self_check:
        return asyncio.run(_self_check(config))
    print(f"repro serve on {config.host}:{config.port} "
          f"(workers={config.workers}, batch_max={config.batch_max}, "
          f"queue_limit={config.queue_limit})", file=sys.stderr)
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


async def _self_check(config: ServeConfig) -> int:
    """End-to-end smoke: sync job, async job, 400, metrics, shutdown."""
    from ..errors import ServeProtocolError
    from .client import ServeClient
    from .jobs import with_deadline

    config.port = 0                 # ephemeral: parallel CI runs coexist
    server = Server(config)
    await server.start()
    failures: list[str] = []

    def check(cond: bool, what: str) -> None:
        (print(f"  ok: {what}") if cond
         else failures.append(what) or print(f"  FAIL: {what}"))

    req = {"op": "partition",
           "graph": {"generator": {"kind": "random", "n": 60,
                                   "seed": 7}},
           "k": 2, "eps": 0.1, "algorithm": "greedy", "seed": 1,
           "deadline_s": 20.0}

    def drive() -> None:
        with ServeClient("127.0.0.1", server.port, timeout_s=25) as c:
            sync = c.partition({**req, "mode": "sync"})
            check(sync["status"] == "done", "sync job completes")
            check("labels" in sync.get("result", {}),
                  "sync result carries labels")
            handle = c.submit({**req, "seed": 2})
            done = handle if handle["status"] == "done" \
                else c.wait(handle["job_id"], timeout_s=20)
            check(done["status"] == "done", "async job completes")
            sim = c.partition({
                "op": "simulate",
                "graph": {"generator": {"kind": "hyperdag-stencil",
                                        "n": 6, "seed": 3}},
                "k": 4, "scheduler": "heft", "imode": "exact",
                "seed": 5, "mode": "sync", "deadline_s": 20.0})
            check(sim["status"] == "done", "simulate job completes")
            sim_result = sim.get("result", {})
            check(sim_result.get("makespan", 0.0)
                  >= sim_result.get("lower_bound", 1.0) > 0
                  and len(sim_result.get("digest", "")) == 64,
                  "simulate result carries makespan and digest")
            again = c.partition({**req, "mode": "sync"})
            check(bool(again.get("cached")), "resubmission is a cache hit")
            try:
                c.partition({"op": "nope", "graph": {}})
                check(False, "protocol error raises")
            except ServeProtocolError:
                check(True, "protocol error raises")
            health = c.health()
            check(health["status"] == "ok", "healthz answers")
            text = c.metrics_text()
            check("repro_serve_http_requests_total" in text
                  and "repro_serve_cache_hit_rate" in text,
                  "metrics scrape renders")

    try:
        await with_deadline(asyncio.to_thread(drive), 60.0)
    except ReproError as exc:
        failures.append(f"self-check drive failed: {exc}")
        print(f"  FAIL: {exc}")
    finally:
        await server.stop()
    print(f"self-check: {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failure(s))")
    return 0 if not failures else 1


def _submit(args) -> int:
    from .client import ServeClient

    if args.hgr:
        from pathlib import Path
        graph = {"hgr": Path(args.hgr).read_text()}
    else:
        graph = {"generator": {"kind": args.generator or "random",
                               "n": args.n, "k": args.k,
                               "seed": args.seed}}
    req = {"op": args.op, "graph": graph, "k": args.k, "eps": args.eps,
           "algorithm": args.algorithm, "metric": args.metric,
           "seed": args.seed, "mode": args.mode}
    if args.deadline is not None:
        req["deadline_s"] = args.deadline
    with ServeClient(args.host, args.port) as client:
        if args.mode == "async":
            out = client.submit(req)
            if args.wait and out["status"] not in ("done", "error"):
                out = client.wait(out["job_id"])
        else:
            out = client.partition(req)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if out.get("status") in ("done", "queued", "running") else 1


def _jobs(args) -> int:
    from .client import ServeClient

    with ServeClient(args.host, args.port) as client:
        if args.job_id and args.cancel:
            out = client.cancel(args.job_id)
        elif args.job_id:
            out = client.job(args.job_id)
        else:
            out = client.jobs()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def serve_main(args) -> int:
    try:
        return {"serve": _serve, "submit": _submit,
                "jobs": _jobs}[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
