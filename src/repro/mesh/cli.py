"""CLI verbs for the mesh: ``mesh up``, ``mesh route``, ``mesh status``.

``repro mesh up`` is the one-command bring-up: it spawns N shard
subprocesses against a shared cache root and runs the router in the
foreground until SIGTERM/SIGINT, then tears the shards down.
``repro mesh route`` answers "which shard owns this key" offline (pure
ring arithmetic, no network) and ``repro mesh status`` scrapes a
running router's ``/v1/mesh`` view.
"""

from __future__ import annotations

import asyncio
import json
import sys

from ..errors import ReproError

__all__ = ["add_mesh_parser", "mesh_main"]


def add_mesh_parser(sub) -> None:
    m = sub.add_parser("mesh", help="sharded serving mesh")
    ms = m.add_subparsers(dest="mesh_command", required=True)

    up = ms.add_parser("up", help="spawn N shards + run the router")
    up.add_argument("--shards", type=int, default=3,
                    help="shard subprocess count")
    up.add_argument("--host", default="127.0.0.1")
    up.add_argument("--port", type=int, default=8080,
                    help="router listen port (0 = ephemeral)")
    up.add_argument("--workers", type=int, default=1,
                    help="worker dispatches per shard")
    up.add_argument("--cache-dir", default=".lab-cache",
                    help="shared content-addressed cache root")
    up.add_argument("--queue-limit", type=int, default=4096,
                    help="per-shard admission queue bound")
    up.add_argument("--no-hedge", action="store_true",
                    help="disable hedged dispatch of slow sync solves")
    up.add_argument("--slow", default=None, metavar="SID=MS",
                    help="inject a worker slowdown on one shard "
                         "(e.g. s1=400), for hedging experiments")

    rt = ms.add_parser("route", help="offline ring lookup for a key")
    rt.add_argument("key", help="routing key (e.g. a job cache key)")
    rt.add_argument("--shards", type=int, default=3,
                    help="shard count to build the ring over")

    st = ms.add_parser("status", help="scrape /v1/mesh of a router")
    st.add_argument("--host", default="127.0.0.1")
    st.add_argument("--port", type=int, default=8080)


def _parse_slow(value: str | None) -> dict[str, float]:
    if not value:
        return {}
    try:
        sid, _, ms = value.partition("=")
        return {sid.strip(): float(ms) / 1000.0}
    except ValueError:
        raise ReproError(f"--slow wants SID=MS, got {value!r}") from None


def _up(args) -> int:
    from .router import MeshConfig, run_router
    from .shards import ShardSupervisor

    supervisor = ShardSupervisor(args.shards, args.cache_dir,
                                 host="127.0.0.1", workers=args.workers,
                                 queue_limit=args.queue_limit,
                                 slow=_parse_slow(args.slow))
    try:
        specs = supervisor.start()
        for spec in specs:
            print(f"shard {spec.id} pid={supervisor.pid(spec.id)} "
                  f"port={spec.port}", file=sys.stderr, flush=True)
        config = MeshConfig(host=args.host, port=args.port, shards=specs,
                            hedge=not args.no_hedge)
        asyncio.run(run_router(config))
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop_all()
    return 0


def _route(args) -> int:
    from .ring import HashRing

    ring = HashRing([f"s{i}" for i in range(args.shards)])
    print(json.dumps({"key": args.key,
                      "owner": ring.assign(args.key),
                      "preference": list(ring.preference(args.key))},
                     indent=2))
    return 0


def _status(args) -> int:
    from ..serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        out = client._checked("GET", "/v1/mesh")
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def mesh_main(args) -> int:
    try:
        return {"up": _up, "route": _route,
                "status": _status}[args.mesh_command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
