"""In-worker job execution for the serving layer.

:func:`solve` follows the lab runner contract ``run(*, seed, **params)``
so a serve job is content-addressed exactly like a lab task:
:data:`SERVE_SPEC` names this module, and
:func:`repro.lab.cache.task_key` folds this file's bytes into the key —
editing the solver invalidates cached serve results the same way it
invalidates lab results.  Results are plain JSON-able dicts.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..algorithms import run_algorithm
from ..lab.cache import task_key
from ..lab.spec import ExperimentSpec
from .protocol import JobRequest, build_graph

__all__ = ["SERVE_SPEC", "job_key", "solve", "solve_graph",
           "warm_solver_modules"]


def warm_solver_modules() -> None:
    """Import the solver stack in the parent before any fork.

    :func:`solve` imports partitioners/scheduling lazily; without this,
    every forked batch worker pays those imports (~300 ms) itself —
    which is exactly the per-dispatch overhead micro-batching exists to
    amortise.  Called once at server start.  ``scipy.sparse.linalg``
    is named too: the spectral partitioner imports it on first use, so
    ``import repro.partitioners`` alone leaves it out.
    """
    import scipy.sparse.linalg  # noqa: F401

    from .. import generators, io, partitioners, scheduling, sim  # noqa: F401

#: Spec under which serve jobs are cached.  ``version`` bumps invalidate
#: every cached serve result (on top of the code-fingerprint keying).
SERVE_SPEC = ExperimentSpec(
    name="serve.job",
    artifact="serve",
    title="serve.job",
    module="repro.serve.runner",
    func="solve",
    version=1,
)


def job_key(request: JobRequest) -> str:
    """Content address of a job (shared ``.lab-cache/`` key space)."""
    return task_key(SERVE_SPEC, request.params, request.seed)


def _solve_partition(graph, *, seed: int, params: Mapping[str, Any]) -> dict:
    from ..core import Metric, connectivity_cost, cut_net_cost, is_balanced

    k = params["k"]
    eps = params["eps"]
    algorithm = params["algorithm"]
    part = run_algorithm(algorithm, graph, k, eps, Metric(params["metric"]),
                         seed=seed)
    return {
        "labels": part.labels.tolist(),
        "sizes": part.sizes().tolist(),
        "connectivity": float(connectivity_cost(graph, part.labels, k)),
        "cut_net": float(cut_net_cost(graph, part.labels, k)),
        "balanced": bool(is_balanced(part, eps, relaxed=True)),
        "algorithm": algorithm,
        "metric": params["metric"],
        "k": k,
        "eps": eps,
    }


def _solve_schedule(graph, *, params: Mapping[str, Any]) -> dict:
    from ..core import recognize, to_dag
    from ..errors import NotAHyperDAGError
    from ..scheduling import list_schedule, trivial_lower_bound

    cert = recognize(graph)
    if cert is None:
        raise NotAHyperDAGError(
            "scheduling requires a hyperDAG payload (Lemma B.1 fails)")
    dag = to_dag(graph, cert)
    k = params["k"]
    schedule = list_schedule(dag, k)
    return {
        "k": k,
        "makespan": int(schedule.makespan),
        "lower_bound": int(trivial_lower_bound(dag, k)),
        "procs": schedule.procs.tolist(),
        "times": schedule.times.tolist(),
    }


def _solve_simulate(graph, *, seed: int, params: Mapping[str, Any]) -> dict:
    from ..hierarchy.topology import HierarchyTopology
    from ..sim import PARTITION_EPS, DurationSpec, SimPlan, simulate

    plan = SimPlan.from_hypergraph(graph)
    topo_spec = params.get("topology")
    if topo_spec is not None:
        topo = HierarchyTopology(tuple(topo_spec["b"]),
                                 tuple(topo_spec["g"]))
    else:
        topo = HierarchyTopology.flat(params["k"])
    labels = run_algorithm(params["algorithm"], graph, topo.k,
                           PARTITION_EPS, seed=seed).labels
    trace = simulate(plan, topo, params["scheduler"], seed=seed,
                     imode=params["imode"],
                     duration=DurationSpec(kind=params["dist"]),
                     latency=params["latency"], partition=labels)
    return {
        "scheduler": trace.scheduler,
        "imode": trace.imode,
        "k": trace.k,
        "tasks": plan.n,
        "makespan": float(trace.makespan),
        "lower_bound": float(trace.lower_bound),
        "makespan_ratio": float(trace.makespan_ratio),
        "transfers": len(trace.transfers),
        "n_events": trace.n_events,
        "digest": trace.digest(),
        "task_worker": trace.task_worker.tolist(),
    }


def _solve_recognize(graph) -> dict:
    from ..core import recognize

    cert = recognize(graph)
    return {
        "is_hyperdag": cert is not None,
        "generators": list(cert.generators) if cert is not None else None,
    }


def solve(*, seed: int, **params: Any) -> dict:
    """Execute one job; returns a JSON-able result dict.

    Raises :class:`~repro.errors.ReproError` subclasses for anything the
    client got wrong (malformed hgr upload, non-hyperDAG scheduling
    input, oversized exact instance); the pool maps those to a per-job
    error result rather than a worker crash.
    """
    return solve_graph(None, seed=seed, params=params)


def solve_graph(graph, *, seed: int, params: Mapping[str, Any]) -> dict:
    """:func:`solve` on a graph the server process already built.

    A batch worker inherits a parsed graph for streamed uploads and
    large inline specs; ``graph`` None parses ``params["graph"]`` here.
    """
    if graph is None:
        graph = build_graph(params)
    op = params["op"]
    if op == "partition":
        result = _solve_partition(graph, seed=seed, params=params)
    elif op == "schedule":
        result = _solve_schedule(graph, params=params)
    elif op == "simulate":
        result = _solve_simulate(graph, seed=seed, params=params)
    else:
        result = _solve_recognize(graph)
    result["op"] = op
    result["n"] = graph.n
    result["m"] = graph.num_edges
    result["pins"] = graph.num_pins
    return result
