"""``repro sim`` — simulate partition+schedule plans from the shell.

``repro sim run FILE.hgr``
    One deterministic simulation of the hyperDAG in ``FILE.hgr`` on a
    Definition 7.1 topology; prints makespan, the static lower bound,
    the ratio, transfer stats, and the trace digest.

``repro sim compare FILE.hgr``
    Cross a set of schedulers with a set of information modes on the
    same plan and print the paper-style makespan matrix.

The machine is given either as ``--topology b1,b2,.. --g g1,g2,..``
(branching factors and per-level transfer costs) or as a flat ``-k``.
Partition-aware schedulers (``locked``, ``work-steal``) get their home
map from ``--algorithm`` (a partitioner run on the same hypergraph).
"""

from __future__ import annotations

import sys

import numpy as np

from ..algorithms import ALGORITHMS, run_algorithm
from ..errors import ReproError

__all__ = ["add_sim_parser", "sim_main"]

_DEFAULT_SCHEDULERS = "heft,cp-list,work-steal,locked,random"


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def add_sim_parser(sub) -> None:
    p = sub.add_parser(
        "sim", help="discrete-event scheduling simulation (repro.sim)")
    ssub = p.add_subparsers(dest="sim_command", required=True)

    def common(q) -> None:
        q.add_argument("hgr", help="hyperDAG input (.hgr)")
        q.add_argument("-k", type=int, default=4,
                       help="flat machine size (ignored with --topology)")
        q.add_argument("--topology", default=None,
                       help="branching factors, e.g. '2,4' (Def 7.1)")
        q.add_argument("--g", default=None,
                       help="per-level transfer costs, e.g. '4,1'")
        q.add_argument("--latency", type=float, default=0.0,
                       help="per-level link latency (single value)")
        q.add_argument("--dist", default="lognormal",
                       choices=("fixed", "uniform", "lognormal"),
                       help="task duration distribution")
        q.add_argument("--jitter", type=float, default=0.3)
        q.add_argument("--sigma", type=float, default=0.25)
        q.add_argument("--size", type=float, default=1.0,
                       help="output data size per task")
        q.add_argument("--slots", type=int, default=1,
                       help="CPU slots per leaf worker")
        q.add_argument("--algorithm", default="multilevel",
                       choices=list(ALGORITHMS),
                       help="partitioner feeding partition-aware "
                            "schedulers")
        q.add_argument("--seed", type=int, default=0)

    r = ssub.add_parser("run", help="simulate one scheduler/imode")
    common(r)
    r.add_argument("--scheduler", default="heft")
    r.add_argument("--imode", default="exact",
                   choices=("exact", "mean", "blind"))

    c = ssub.add_parser("compare",
                        help="makespan matrix: schedulers x imodes")
    common(c)
    c.add_argument("--schedulers", default=_DEFAULT_SCHEDULERS,
                   help="comma-separated scheduler names")
    c.add_argument("--imodes", default="exact,mean,blind",
                   help="comma-separated information modes")
    return None


def _load(args):
    """(plan, topology, duration spec, partition labels) from args."""
    from ..hierarchy.topology import HierarchyTopology
    from ..io import read_hgr
    from . import PARTITION_EPS
    from .durations import DurationSpec
    from .plan import SimPlan

    graph = read_hgr(args.hgr)
    if args.topology is not None:
        b = _csv_ints(args.topology)
        g = (_csv_floats(args.g) if args.g is not None
             else tuple(float(2 ** (len(b) - 1 - i))
                        for i in range(len(b))))
        topo = HierarchyTopology(b, g)
    else:
        topo = HierarchyTopology.flat(args.k)
    plan = SimPlan.from_hypergraph(graph,
                                   sizes=np.full(graph.n, float(args.size)))
    spec = DurationSpec(kind=args.dist, jitter=args.jitter,
                        sigma=args.sigma)
    labels = run_algorithm(args.algorithm, graph, topo.k, PARTITION_EPS,
                           seed=args.seed).labels
    return plan, topo, spec, labels


def _run_one(plan, topo, spec, labels, scheduler: str, imode: str,
             args):
    from .simulator import simulate

    return simulate(plan, topo, scheduler, seed=args.seed, imode=imode,
                    duration=spec, latency=args.latency,
                    slots=args.slots, partition=labels)


def _sim_run(args) -> int:
    plan, topo, spec, labels = _load(args)
    trace = _run_one(plan, topo, spec, labels, args.scheduler,
                     args.imode, args)
    print(f"scheduler     : {trace.scheduler}")
    print(f"imode         : {trace.imode}")
    print(f"machine       : b={topo.b} g={topo.g} (k={topo.k})")
    print(f"tasks         : {plan.n}")
    print(f"makespan      : {trace.makespan:.4f}")
    print(f"lower bound   : {trace.lower_bound:.4f}")
    print(f"ratio         : {trace.makespan_ratio:.4f}")
    print(f"transfers     : {len(trace.transfers)}")
    print(f"events        : {trace.n_events}")
    print(f"digest        : {trace.digest()[:16]}")
    return 0


def _sim_compare(args) -> int:
    from ..lab.report import format_table

    plan, topo, spec, labels = _load(args)
    imodes = [s.strip() for s in args.imodes.split(",") if s.strip()]
    rows = []
    for name in (s.strip() for s in args.schedulers.split(",")):
        if not name:
            continue
        row: list = [name]
        for imode in imodes:
            trace = _run_one(plan, topo, spec, labels, name, imode, args)
            row.append(round(trace.makespan, 3))
        rows.append(row)
    text, _ = format_table(
        f"repro sim: makespan by scheduler x imode "
        f"(k={topo.k}, seed={args.seed})",
        ["scheduler"] + [f"{m} makespan" for m in imodes], rows)
    print(text)
    return 0


def sim_main(args) -> int:
    try:
        if args.sim_command == "run":
            return _sim_run(args)
        return _sim_compare(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
