"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
partition
    Partition an hMETIS ``.hgr`` file into k ε-balanced parts and report
    both cost metrics; optionally write the partition file.
evaluate
    Evaluate an existing partition file against a hypergraph (both
    metrics, balance check, per-part sizes, optional hierarchical cost).
recognize
    Decide whether an ``.hgr`` file is a hyperDAG (Lemma B.2) and print
    a generator certificate.
info
    Basic statistics of an ``.hgr`` file (n, m, ρ, Δ, components).
lab
    Experiment orchestration: ``lab list|run|status|report`` regenerate
    the EXPERIMENTS.md tables via :mod:`repro.lab` (process-parallel,
    cached, journaled).
analyze
    Static invariant checks over the codebase (seed discipline, silent
    excepts, kernel-oracle parity, runner signatures, float tolerance,
    error hierarchy, serve-timeout) via :mod:`repro.analyze`.
serve / submit / jobs
    Online partitioning service (:mod:`repro.serve`): ``serve`` runs the
    HTTP server (micro-batching, backpressure, shared result cache);
    ``submit`` sends one job; ``jobs`` lists/polls/cancels jobs.
mesh
    Sharded serving (:mod:`repro.mesh`): ``mesh up`` spawns N shard
    processes plus a consistent-hash router (hedged dispatch, stream
    relay, requeue-on-failure); ``mesh route`` is an offline ring
    lookup; ``mesh status`` scrapes a router.
sim
    Discrete-event scheduling simulation (:mod:`repro.sim`):
    ``sim run`` executes one hyperDAG plan on a Definition 7.1
    topology under a chosen scheduler/information mode; ``sim
    compare`` prints the scheduler x imode makespan matrix.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algorithms import ALGORITHMS, run_algorithm
from .core import (
    Metric,
    connectivity_cost,
    cut_net_cost,
    is_balanced,
    recognize,
)
from .io import read_hgr, read_partition, write_partition

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Balanced hypergraph partitioning "
                    "(Papp–Anegg–Yzelman SPAA 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition an .hgr file")
    p.add_argument("hgr", help="input hypergraph (.hgr)")
    p.add_argument("-k", type=int, default=2, help="number of parts")
    p.add_argument("--eps", type=float, default=0.03,
                   help="balance slack ε (default 0.03)")
    p.add_argument("--algorithm", choices=list(ALGORITHMS),
                   default="multilevel")
    p.add_argument("--metric", choices=["connectivity", "cut-net"],
                   default="connectivity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=1,
                   help="independent multilevel V-cycles, best kept "
                        "(multilevel only)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes for independent V-cycles / "
                        "initial candidates (multilevel only)")
    p.add_argument("-o", "--output", help="write partition file here")

    e = sub.add_parser("evaluate", help="evaluate a partition file")
    e.add_argument("hgr")
    e.add_argument("partition")
    e.add_argument("-k", type=int, default=None,
                   help="number of parts (default: max label + 1)")
    e.add_argument("--eps", type=float, default=0.03)

    r = sub.add_parser("recognize", help="hyperDAG recognition (Lemma B.2)")
    r.add_argument("hgr")

    i = sub.add_parser("info", help="hypergraph statistics")
    i.add_argument("hgr")

    g = sub.add_parser("generate",
                       help="generate a workload as an .hgr file")
    from .generators.factory import WORKLOAD_KINDS
    g.add_argument("kind", choices=list(WORKLOAD_KINDS))
    g.add_argument("output", help="output .hgr path")
    g.add_argument("-n", type=int, default=100,
                   help="size parameter (nodes / grid side / stages)")
    g.add_argument("-k", type=int, default=4,
                   help="planted parts (planted/blockdiag only)")
    g.add_argument("--density", type=float, default=0.05,
                   help="nonzero density (spmv-random)")
    g.add_argument("--seed", type=int, default=0)

    from .analyze.cli import add_analyze_parser
    from .lab.cli import add_lab_parser
    from .mesh.cli import add_mesh_parser
    from .serve.cli import add_serve_parser
    from .sim.cli import add_sim_parser
    add_lab_parser(sub)
    add_analyze_parser(sub)
    add_serve_parser(sub)
    add_mesh_parser(sub)
    add_sim_parser(sub)
    return parser


def _partition(args) -> int:
    graph = read_hgr(args.hgr)
    part = run_algorithm(args.algorithm, graph, args.k, args.eps,
                         Metric(args.metric), seed=args.seed,
                         repetitions=args.repetitions, n_jobs=args.jobs)
    conn = connectivity_cost(graph, part.labels, args.k)
    cut = cut_net_cost(graph, part.labels, args.k)
    print(f"algorithm     : {args.algorithm}")
    print(f"k / eps       : {args.k} / {args.eps}")
    print(f"connectivity  : {conn:g}")
    print(f"cut-net       : {cut:g}")
    print(f"part sizes    : {part.sizes().tolist()}")
    print(f"eps-balanced  : {is_balanced(part, args.eps, relaxed=True)}")
    if args.output:
        write_partition(part, args.output)
        print(f"wrote partition to {args.output}")
    return 0


def _evaluate(args) -> int:
    graph = read_hgr(args.hgr)
    part = read_partition(args.partition, k=args.k)
    if part.n != graph.n:
        print(f"error: partition has {part.n} labels for {graph.n} nodes",
              file=sys.stderr)
        return 2
    print(f"k             : {part.k}")
    print(f"connectivity  : {connectivity_cost(graph, part.labels, part.k):g}")
    print(f"cut-net       : {cut_net_cost(graph, part.labels, part.k):g}")
    print(f"part sizes    : {part.sizes().tolist()}")
    print(f"eps-balanced  : {is_balanced(part, args.eps, relaxed=True)} "
          f"(eps={args.eps})")
    return 0


def _recognize(args) -> int:
    graph = read_hgr(args.hgr)
    cert = recognize(graph)
    if cert is None:
        print("NOT a hyperDAG (Lemma B.1 condition fails)")
        return 1
    print("hyperDAG: yes")
    print(f"generators (hyperedge -> node): "
          f"{list(cert.generators)[:20]}"
          f"{' ...' if len(cert.generators) > 20 else ''}")
    return 0


def _info(args) -> int:
    graph = read_hgr(args.hgr)
    comps = graph.connected_components()
    print(f"nodes n       : {graph.n}")
    print(f"hyperedges m  : {graph.num_edges}")
    print(f"pins rho      : {graph.num_pins}")
    print(f"max degree Δ  : {graph.max_degree}")
    print(f"components    : {len(comps)}")
    sizes = sorted((len(e) for e in graph.edges), reverse=True)
    if sizes:
        print(f"edge sizes    : max={sizes[0]} "
              f"median={sizes[len(sizes) // 2]} min={sizes[-1]}")
    return 0


def _generate(args) -> int:
    from .generators import make_workload
    from .io import write_hgr

    graph = make_workload(args.kind, n=args.n, k=args.k,
                          density=args.density, seed=args.seed)
    write_hgr(graph, args.output)
    print(f"wrote {args.kind}: n={graph.n} m={graph.num_edges} "
          f"pins={graph.num_pins} Δ={graph.max_degree} -> {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lab":
        from .lab.cli import lab_main
        return lab_main(args)
    if args.command == "analyze":
        from .analyze.cli import analyze_main
        return analyze_main(args)
    if args.command in ("serve", "submit", "jobs"):
        from .serve.cli import serve_main
        return serve_main(args)
    if args.command == "mesh":
        from .mesh.cli import mesh_main
        return mesh_main(args)
    if args.command == "sim":
        from .sim.cli import sim_main
        return sim_main(args)
    handlers = {"partition": _partition, "evaluate": _evaluate,
                "recognize": _recognize, "info": _info,
                "generate": _generate}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
