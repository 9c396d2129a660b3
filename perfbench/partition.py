"""``vcycle-1m`` and ``reps-spmv``: timed ``multilevel_partition`` calls.

A *pass* partitions every instance of one draw once.  A run makes
``--seconds // pass_budget_s`` passes (at least one), each with its own
partitioner seeds -- and, on ``reps-spmv``, its own random patterns --
all derived from the workload seed, so the work of a run depends on the
seed and the run length only, never on how fast the host is.
``partition_s`` is the wall time of all timed calls divided by the
number of passes: the host's speed drifts within a run, and the mean
uses every pass where a median of two or three would drop most.

Every call is one operation.  It fails when it raises, when its labels
leave ``[0, k)`` or break the relaxed balance caps, or when its cost or
label digest differs from another answer that must be the same: the
traced and the ``n_jobs=1`` calls of the traced run, and an earlier run
of the same seed in this checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from common import OUT, ROOT, child_env, cpu_seconds, median, vm_hwm_mb

SETUPS = 7          # setup_s is the median of this many set-ups
DIGESTS = OUT / "digests.json"


@dataclass(frozen=True)
class Config:
    k: int
    eps: float
    repetitions: int
    n_jobs: int
    pass_budget_s: float    # run length per pass


CONFIGS = {
    # the bench_scale instance: 3e5 nodes, 2e5 five-pin edges, 10% across
    "vcycle-1m": Config(k=8, eps=0.05, repetitions=1, n_jobs=2,
                        pass_budget_s=15.0),
    # SpMV fine-grain hypergraphs: every level is below POOL_MIN_PINS,
    # so whole V-cycles go through _run_tasks and the heap FM works
    "reps-spmv": Config(k=16, eps=0.03, repetitions=4, n_jobs=2,
                        pass_budget_s=15.0),
}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // CONFIGS[workload].pass_budget_s))


def build_instances(workload: str, seed: int, passes: int) -> list[list]:
    """One list of hypergraphs per pass; the same seed gives the same."""
    import numpy as np
    from repro.generators import (laplacian_2d_pattern, random_sparse_pattern,
                                  spmv_fine_grain,
                                  streaming_planted_hypergraph)
    if workload == "vcycle-1m":
        graph, _planted = streaming_planted_hypergraph(
            300_000, 8, 180_000, 20_000, edge_size=5, rng=seed)
        return [[graph]] * passes
    # random patterns give FM a large boundary, the Laplacian a small
    # one; sparse random rows keep the heap FM's time per instance from
    # swinging as much as dense ones do (so a pass averages well)
    grid = spmv_fine_grain(laplacian_2d_pattern(32))
    out = []
    for p in range(passes):
        rng = np.random.default_rng([seed, p])
        out.append([spmv_fine_grain(random_sparse_pattern(330, 330, 0.024,
                                                          rng=rng))
                    for _ in range(3)] + [grid])
    return out


def setup_only(workload: str, seed: int, passes: int,
               t_start: float) -> None:
    """Child side of a set-up probe: build, then print elapsed time."""
    build_instances(workload, seed, passes)
    print(json.dumps({"setup_s": time.perf_counter() - t_start}))


def _probe_setup(workload: str, seed: int, passes: int) -> float:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--setup-only", str(passes)],
        capture_output=True, text=True, env=child_env(), timeout=120,
        check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _part_seed(seed: int, pass_index: int, index: int) -> int:
    return seed * 1_000_003 + pass_index * 1_009 + index


class Checker:
    """Verifies every returned partition; counts calls and failures."""

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, graphs, parts) -> list:
        """Validate one pass; returns its ``[cost, digest]`` answers."""
        from repro.core import Metric, cost, is_balanced
        answers = []
        for i, (graph, part) in enumerate(zip(graphs, parts)):
            self.attempted += 1
            if part is None:
                self._fail(f"{label} instance {i}: the call raised")
                answers.append(None)
                continue
            labels = part.labels
            if labels.shape != (graph.n,) or labels.min(initial=0) < 0 \
                    or labels.max(initial=0) >= self.cfg.k:
                self._fail(f"{label} instance {i}: labels outside [0, k)")
            elif not is_balanced(part, self.cfg.eps, relaxed=True):
                self._fail(f"{label} instance {i}: balance caps violated")
            answers.append([float(cost(graph, part, Metric.CONNECTIVITY)),
                            hashlib.sha256(labels.tobytes()).hexdigest()])
        return answers

    def expect_same(self, label: str, got: list, want: list) -> None:
        for i, (g, w) in enumerate(zip(got, want)):
            if g is not None and w is not None and g != w:
                self._fail(f"{label} instance {i}: cost/digest "
                           f"{g[0]:g}/{g[1][:12]} differs from "
                           f"{w[0]:g}/{w[1][:12]}")

    def check_history(self, key: str, answers: list) -> None:
        """Same seed, same checkout: the answers must repeat exactly."""
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        try:
            seen = json.loads(DIGESTS.read_text())
        except (OSError, ValueError):
            seen = {}
        before = seen.get(key)
        if before is not None:
            self.expect_same(f"{key} (vs an earlier run)", answers, before)
            return
        seen[key] = answers
        tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, DIGESTS)

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_pass(graphs, cfg: Config, seed: int, pass_index: int, n_jobs: int,
             around=None):
    """Partition every instance once; returns (wall seconds, partitions).

    ``around(i)`` is called before call ``i`` and returns the callable
    to run after it (the traced run opens and closes a root span).
    """
    from repro.core import Metric
    from repro.partitioners import multilevel_partition
    parts = []
    t0 = time.perf_counter()
    for i, graph in enumerate(graphs):
        after = around(i) if around else None
        try:
            parts.append(multilevel_partition(
                graph, cfg.k, cfg.eps, Metric.CONNECTIVITY,
                rng=_part_seed(seed, pass_index, i),
                repetitions=cfg.repetitions, n_jobs=n_jobs))
        except Exception as exc:    # counted as a failed operation
            print(f"call {i} raised {type(exc).__name__}: {exc}")
            parts.append(None)
        finally:
            if after is not None:
                after()
    return time.perf_counter() - t0, parts


def run(workload: str, seed: int, seconds: float, trace: bool,
        t_start: float) -> dict:
    cfg = CONFIGS[workload]
    passes = 1 if trace else pass_count(workload, seconds)
    t0 = time.perf_counter()
    draws = build_instances(workload, seed, passes)
    build_s = time.perf_counter() - t0
    setups = [time.perf_counter() - t_start]
    checker = Checker(cfg)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(workload, OUT / f"spans-{workload}-{seed}")
        tracing.install(tracer)     # before any fork; disabled for now

    walls, answers, cpu_s = [], [], 0.0
    probes = SETUPS - 1
    for p, graphs in enumerate(draws):
        # the fresh-interpreter set-ups are spread between the passes,
        # so that setup_s, like partition_s, averages the host's speed
        # over the run instead of sampling one moment of it
        setups += [_probe_setup(workload, seed, passes) for _ in range(
            probes * (p + 1) // len(draws) - probes * p // len(draws))]
        cpu0 = cpu_seconds()
        wall, parts = run_pass(graphs, cfg, seed, p, cfg.n_jobs)
        cpu_s += cpu_seconds() - cpu0
        walls.append(wall)
        answers.append(checker.check(f"pass {p}", graphs, parts))
        checker.check_history(f"{workload}/{seed}/{p}", answers[-1])
    costs = [sum(a[0] for a in pass_answers if a is not None)
             for pass_answers in answers]
    result = {
        "setup_samples": setups,
        "pins": [g.num_pins for g in draws[0]],
        "passes": walls,
        "cut_cost": median(costs),
        "digests": [[a[1][:12] if a else None for a in pa] for pa in answers],
        "e2e": {"setup_s": median(setups),
                "partition_s": sum(walls) / len(walls),
                "peak_rss_mb": vm_hwm_mb()},
    }
    if trace:
        result["traced_s"], result["layers"] = _traced(
            workload, seed, draws[0], cfg, checker, tracer, walls[0],
            answers[0], cpu_s, build_s, result["cut_cost"])
    result.update(attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems)
    return result


def _traced(workload, seed, graphs, cfg, checker, tracer, untraced_s,
            untraced_answers, cpu_s, build_s, cut_cost):
    """Traced pass, then the serial reference; returns layer figures."""
    import tracing
    from repro import instrument

    roots = []

    def around(i):
        tracer.new_vcycle()
        span = tracer.begin("root", "multilevel_partition", instance=i)
        roots.append(span)
        return lambda: tracer.end(span)

    instrument.reset()
    tracer.enabled = True
    try:
        traced_s, parts = run_pass(graphs, cfg, seed, 0, cfg.n_jobs, around)
    finally:
        tracer.enabled = False
    worker_rss = instrument.snapshot().get(
        "pool_worker_rss_delta_bytes_max", 0.0)
    checker.expect_same("traced pass",
                        checker.check("traced pass", graphs, parts),
                        untraced_answers)
    spans = tracer.collect()
    layers = tracing.layer_metrics(tracer, spans, roots)
    tracing.write_trace(OUT / f"trace-{workload}-{seed}.jsonl", spans,
                        workload, f"n_jobs={cfg.n_jobs}")

    serial_s, parts = run_pass(graphs, cfg, seed, 0, 1)
    checker.expect_same("serial pass (n_jobs=1)",
                        checker.check("serial pass", graphs, parts),
                        untraced_answers)

    layers.update({
        "partitioners.multilevel.cut_cost": cut_cost,
        "partitioners.multilevel.serial_partition_s": serial_s,
        "partitioners.multilevel.speedup": serial_s / untraced_s,
        "process.cpu_s": cpu_s,
        "partitioners.subround.worker_rss_mb": worker_rss / 2**20,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "generators.build_s": build_s,
        "host.cpu_count": float(os.cpu_count() or 1),
    })
    for name in tracer.missing:
        print(f"missing: {name} (its layer metrics are reported as null)")
    return traced_s, layers
