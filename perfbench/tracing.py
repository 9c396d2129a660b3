"""Spans recorded from outside the program, in every process.

:func:`install` replaces the module-level functions and methods that
``multilevel_partition`` reaches with timing wrappers.  It runs before
the first fork, so the ``RoundPool`` workers and the ``_run_tasks``
workers inherit the wrappers and record spans too; each worker writes
its spans to ``spans-<pid>.jsonl`` when it exits, and :meth:`Tracer.collect`
merges them.  Nothing under ``src/`` is edited; a wrapped name that no
longer exists is reported as missing, never as zero.

A layer's ``_s`` figure is its share of the traced wall time.  At each
instant the time goes to the innermost open span of every process that
is working: when worker spans are open, they split it equally and the
waiting parent gets nothing; otherwise the parent's innermost span gets
it.  In a serial stretch this is plain self time (a span's duration
minus its children's); across workers it is the share of wall time the
layer held.  The shares of all spans add up to the traced wall time
exactly, so ``other_s`` -- the part no layer claims -- reconciles.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import shutil
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

# (span kind, module, attribute path).  ``A.b`` is an attribute of a
# class, ``D[key]`` an entry of a module-level dict.
TARGETS = (
    ("vcycle", "repro.partitioners.multilevel", "multilevel_partition"),
    ("coarsen", "repro.partitioners.multilevel", "subround_coarsen_step"),
    ("contract", "repro.core.hypergraph", "Hypergraph.contract"),
    ("contract", "repro.core.hypergraph", "Hypergraph.merge_parallel_edges"),
    ("fm", "repro.partitioners.multilevel", "subround_fm_refine"),
    ("heap_fm", "repro.partitioners.multilevel", "fm_refine"),
    ("portfolio", "repro.partitioners.multilevel", "_initial_portfolio"),
    ("portfolio", "repro.partitioners.multilevel", "_portfolio_candidate"),
    ("portfolio", "repro.partitioners.multilevel",
     "greedy_sequential_partition"),
    ("portfolio", "repro.partitioners.multilevel", "bfs_growth_partition"),
    ("portfolio", "repro.partitioners.multilevel",
     "random_balanced_partition"),
    ("tasks", "repro.partitioners.multilevel", "_run_tasks"),
    ("task", "repro.partitioners.multilevel", "_single_vcycle"),
    ("task", "repro.partitioners.multilevel", "_single_vcycle_shm"),
    ("pool_stage", "repro.partitioners.subround", "RoundPool.run_stage"),
    ("pool_life", "repro.partitioners.subround", "RoundPool.__init__"),
    ("pool_life", "repro.partitioners.subround", "RoundPool.close"),
    ("stage", "repro.partitioners.subround", "_STAGES[propose]"),
    ("stage", "repro.partitioners.subround", "_STAGES[fm_gain]"),
    ("segment", "repro.core.shm", "SharedArrays.create"),
    ("segment", "repro.core.shm", "SharedArrays.create_empty"),
    ("segment", "repro.core.shm", "SharedArrays.attach"),
    ("segment", "repro.core.shm", "SharedArrays.close"),
    ("segment", "repro.core.shm", "SharedArrays.unlink"),
)

# Per-layer metric -> the span kinds whose wall-time share it sums.
SHARE_METRICS = {
    "partitioners.subround.coarsen_s": ("coarsen",),
    "core.hypergraph.contract_s": ("contract",),
    "partitioners.subround.fm_s": ("fm",),
    "partitioners.fm.heap_fm_s": ("heap_fm",),
    "partitioners.multilevel.portfolio_s": ("portfolio",),
    "partitioners.subround.pool_dispatch_s": ("pool_stage", "pool_life"),
    "core.shm.segment_s": ("segment",),
    "partitioners.multilevel.tasks_dispatch_s": ("tasks",),
}
# The span kinds each metric needs; it is null when one of them has no
# target left.
NEEDS = {
    **SHARE_METRICS,
    "partitioners.multilevel.levels": ("coarsen",),
    "partitioners.fm.heap_fm_calls": ("heap_fm",),
    "partitioners.subround.pool_stages": ("pool_stage",),
    "partitioners.subround.pool_compute_s": ("pool_stage", "stage"),
    "partitioners.multilevel.tasks_wall_s": ("tasks",),
    "partitioners.multilevel.tasks_busy_frac": ("tasks",),
}
# Stage functions do the work of whichever of these dispatched them.
_DISPATCHERS = ("coarsen", "fm")


class Tracer:
    """In-memory span store of one process; workers flush at exit."""

    def __init__(self, workload: str, span_dir: Path) -> None:
        self.workload = workload
        self.span_dir = span_dir
        shutil.rmtree(span_dir, ignore_errors=True)   # a crashed run's spans
        self.enabled = False
        self.missing: list[str] = []
        self.kinds_missing: set[str] = set()
        self._reset(os.getpid())
        mp_util.register_after_fork(self, Tracer._in_child)

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._levels: dict[int, int] = {}
        self._seq = 0

    def _in_child(self) -> None:
        # the parent's spans and open stack are not this process's
        self._reset(os.getpid())
        mp_util.Finalize(None, self.flush, exitpriority=100)

    # -- recording ------------------------------------------------------

    def begin(self, kind: str, name: str, level: int | None = None,
              **extra) -> dict:
        self._seq += 1
        span = {"id": f"{self.pid}:{self._seq}", "pid": self.pid,
                "ppid": os.getppid(), "kind": kind, "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "level": level, "start": time.perf_counter(), "end": None}
        span.update(extra)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def new_vcycle(self) -> None:
        self._levels = {}

    def level_of(self, n: int, register: bool = False) -> int | None:
        if register:
            return self._levels.setdefault(n, len(self._levels))
        return self._levels.get(n)

    def flush(self) -> None:
        if not self.spans:
            return
        self.span_dir.mkdir(parents=True, exist_ok=True)
        path = self.span_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    # -- merging --------------------------------------------------------

    def collect(self) -> list[dict]:
        """This process's spans plus every worker's, parent-linked.

        A worker's outermost span is attached to the innermost span of
        the forking process that encloses it in time (the clock is
        system-wide), which is the ``run_stage`` or ``_run_tasks`` call
        that handed it the work.
        """
        spans = list(self.spans)
        self.spans = []
        if self.span_dir.is_dir():
            for path in sorted(self.span_dir.glob("spans-*.jsonl")):
                with open(path) as fh:
                    spans += [json.loads(line) for line in fh]
                path.unlink()
        by_pid = defaultdict(list)
        for s in spans:
            by_pid[s["pid"]].append(s)
        for s in spans:
            if s["parent"] is None and s["pid"] != self.pid:
                around = [p for p in by_pid.get(s["ppid"], ())
                          if p["start"] <= s["start"] and p["end"] >= s["end"]]
                if around:
                    s["parent"] = max(around, key=lambda p: p["start"])["id"]
        return spans


def _resolve(module: str, path: str):
    """(owner, key, current value, is-dict-entry) or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    if "[" in path:
        name, key = path[:-1].split("[")
        table = getattr(owner, name, None)
        if not isinstance(table, dict) or key not in table:
            return None
        return table, key, table[key], True
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if raw is None:
            return None
        return owner, attr, raw, False
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr), False


def _level_for(tracer: Tracer, kind: str, args) -> int | None:
    graph = args[0] if args else None
    n = getattr(graph, "n", None)
    if not isinstance(n, int):
        return None
    return tracer.level_of(n, register=(kind == "coarsen"))


def _wrapper(tracer: Tracer, kind: str, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if kind == "vcycle":
            tracer.new_vcycle()
        extra = {}
        if kind == "tasks" and len(args) >= 3:
            extra = {"slots": min(int(args[2]), len(args[1]))}
        span = tracer.begin(kind, name, _level_for(tracer, kind, args),
                            **extra)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if kind == "coarsen" and result is not None:
            coarse = result[0]
            span["shrunk"] = bool(coarse.n < args[0].n)
            if span["shrunk"]:
                tracer.level_of(coarse.n, register=True)
        return result
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; note the ones that do not.

    A metric goes missing only when every target of a span kind it
    needs is gone; a kind that lost some of its targets is still
    measured from the rest (and the lost ones are listed).
    """
    present = set()
    for kind, module, path in TARGETS:
        found = _resolve(module, path)
        if found is None:
            tracer.missing.append(f"{module}.{path}")
            continue
        present.add(kind)
        owner, key, raw, is_entry = found
        if is_entry:
            owner[key] = _wrapper(tracer, kind, path, raw)
        elif isinstance(raw, classmethod):
            setattr(owner, key,
                    classmethod(_wrapper(tracer, kind, path, raw.__func__)))
        else:
            setattr(owner, key, _wrapper(tracer, kind, path, raw))
    tracer.kinds_missing = {kind for kind, _, _ in TARGETS} - present


# ---------------------------------------------------------------------------
# From spans to layer figures
# ---------------------------------------------------------------------------

def _self_segments(spans: list[dict]) -> list[tuple[float, float, dict]]:
    """Per process, the stretches of each span not covered by a child."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    segs = []
    for s in spans:
        cursor = s["start"]
        own = sorted((c for c in children[s["id"]] if c["pid"] == s["pid"]),
                     key=lambda c: c["start"])
        for c in own:
            if c["start"] > cursor:
                segs.append((cursor, c["start"], s))
            cursor = max(cursor, c["end"])
        if s["end"] > cursor:
            segs.append((cursor, s["end"], s))
    return segs


def shares(spans: list[dict], root: dict) -> dict[str, float]:
    """Wall-time share of every span id over the root's interval."""
    segs = [(max(a, root["start"]), min(b, root["end"]), s)
            for a, b, s in _self_segments(spans)]
    segs = [g for g in segs if g[1] > g[0]]
    events = sorted({t for a, b, _ in segs for t in (a, b)})
    opens = defaultdict(list)
    for a, b, s in segs:
        opens[a].append((b, s))
    out: dict[str, float] = defaultdict(float)
    active: list[tuple[float, dict]] = []
    for t0, t1 in zip(events, events[1:]):
        active = [(b, s) for b, s in active if b > t0] + opens.get(t0, [])
        workers = [s for _, s in active if s["pid"] != root["pid"]]
        takers = workers or [s for _, s in active
                             if s["pid"] == root["pid"]]
        for s in takers:
            out[s["id"]] += (t1 - t0) / len(takers)
    return out


def layer_of(span: dict, by_id: dict) -> str:
    """The span kind a span's time counts toward."""
    if span["kind"] != "stage":
        return span["kind"]
    up = by_id.get(span["parent"])
    while up is not None and up["kind"] not in _DISPATCHERS:
        up = by_id.get(up["parent"])
    return up["kind"] if up is not None else "other"


def layer_metrics(tracer: Tracer, spans: list[dict],
                  roots: list[dict]) -> dict[str, float | None]:
    """Per-layer figures over the traced calls (``roots``)."""
    by_id = {s["id"]: s for s in spans}
    total = defaultdict(float)
    for root in roots:
        for sid, sec in shares(spans, root).items():
            total[layer_of(by_id[sid], by_id)] += sec
    wall = sum(r["end"] - r["start"] for r in roots)
    out: dict[str, float | None] = {}
    for metric, kinds in SHARE_METRICS.items():
        out[metric] = sum(total[k] for k in kinds)
    # a missing target's time simply stays with its caller's span
    out["partitioners.multilevel.other_s"] = wall - sum(
        out[m] for m in SHARE_METRICS)

    out["partitioners.fm.heap_fm_calls"] = float(
        sum(1 for s in spans if s["kind"] == "heap_fm"))
    out["partitioners.multilevel.levels"] = float(
        sum(1 for s in spans if s["kind"] == "coarsen" and s.get("shrunk")))
    stages = [s for s in spans if s["kind"] == "pool_stage"]
    out["partitioners.subround.pool_stages"] = float(len(stages))
    stage_ids = {s["id"] for s in stages}
    out["partitioners.subround.pool_compute_s"] = float(sum(
        s["end"] - s["start"] for s in spans
        if s["kind"] == "stage" and s["parent"] in stage_ids))
    # a _run_tasks call forked iff a span of another process hangs
    # under it; those spans are its tasks
    remote = [s for s in spans if s["parent"] in by_id
              and by_id[s["parent"]]["kind"] == "tasks"
              and by_id[s["parent"]]["pid"] != s["pid"]]
    tasks = [by_id[i] for i in {s["parent"] for s in remote}]
    tasks_wall = sum(t["end"] - t["start"] for t in tasks)
    busy = sum(s["end"] - s["start"] for s in remote)
    capacity = sum((t["end"] - t["start"]) * t.get("slots", 1)
                   for t in tasks)
    out["partitioners.multilevel.tasks_wall_s"] = tasks_wall
    out["partitioners.multilevel.tasks_busy_frac"] = (
        busy / capacity if capacity > 0 else 0.0)

    for metric, kinds in NEEDS.items():
        if any(k in tracer.kinds_missing for k in kinds):
            out[metric] = None
    return out


def write_trace(path: Path, spans: list[dict], workload: str,
                phase: str) -> None:
    """Write spans (name, start, end, parent, workload, level, ...)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(dict(s, workload=workload, phase=phase))
                     + "\n")
