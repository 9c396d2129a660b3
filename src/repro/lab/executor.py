"""Process-parallel task execution with timeouts, retries, and caching.

Every task runs in its own worker process (the deterministic
seed-up-front discipline of ``multilevel_partition``'s ``n_jobs``
applied at the harness level): seeds and parameters are fixed at
expansion time, so results are identical for every ``jobs`` value, and
a hung or exploding task can be killed without touching its siblings.

Failure containment:

* **timeout** — a task past its wall-clock budget is terminated and
  recorded as ``status: "timeout"``; the run degrades gracefully
  instead of dying.
* **crash** — a task that raises or is OOM-killed is retried up to
  ``spec.retries`` extra times (transient failures), then recorded as
  ``status: "error"`` with the worker's traceback.
* **interrupt** — results are written by the *workers*, atomically,
  straight into the content-addressed cache; whatever completed before
  a kill is a cache hit on the next run, which is all a resume is.

The worker protocol is filesystem-based on purpose: a result file
either exists completely or not at all, so no partially-pickled queue
state can corrupt a run.  :func:`write_result` and :func:`read_result`
are that protocol; :mod:`repro.serve.pool` speaks it too.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from .. import instrument
from ..core.workers import peak_rss_bytes, start, stop
from .cache import ResultCache, atomic_write_json, jsonify
from .journal import RunJournal
from .spec import Task, resolve_callable

__all__ = ["TaskResult", "execute", "read_result", "write_result"]

_POLL_S = 0.01


@dataclass
class TaskResult:
    """Outcome of one task, as seen by the parent process."""

    task: Task
    status: str                     # "ok" | "cached" | "timeout" | "error"
    values: Any = None              # normalised list of table dicts
    duration_s: float = 0.0
    peak_rss_kb: int = 0
    counters: dict = field(default_factory=dict)
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    @classmethod
    def from_file(cls, task: Task, status: str, payload: dict,
                  attempts: int = 1) -> "TaskResult":
        """A result from a result file's content (see write_result)."""
        return cls(task=task, status=status, values=payload["values"],
                   duration_s=payload.get("duration_s", 0.0),
                   peak_rss_kb=payload.get("peak_rss_kb", 0),
                   counters=payload.get("counters", {}), attempts=attempts)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _normalize_tables(result: Any, title: str,
                      header: Sequence[str] | None) -> list[dict]:
    """Coerce a runner's return value into a list of table dicts."""
    if isinstance(result, dict):
        result = [result]
    if (isinstance(result, list) and result
            and all(isinstance(t, dict) for t in result)):
        return [{"title": t.get("title", title),
                 "header": list(t.get("header") or header or []),
                 "rows": [list(r) for r in t.get("rows", [])]}
                for t in result]
    rows = [list(r) for r in (result or [])]
    return [{"title": title, "header": list(header or []), "rows": rows}]


def write_result(outfile: Path, errfile: Path,
                 fn: Callable[[], Any]) -> bool:
    """Run ``fn()`` in a one-shot worker; return whether ``outfile`` got
    ``{values, duration_s, peak_rss_kb, counters}`` (its result, wall
    time, the worker's peak RSS, its instrument counters).  If ``fn``
    raises, ``errfile`` gets ``{error}`` with the traceback instead.
    Both writes are atomic."""
    try:
        instrument.reset()
        t0 = time.perf_counter()
        values = fn()
        duration = time.perf_counter() - t0
        atomic_write_json(outfile, {
            "values": values,
            "duration_s": round(duration, 6),
            "peak_rss_kb": peak_rss_bytes() // 1024,
            "counters": instrument.snapshot(),
        })
        return True
    except Exception:
        atomic_write_json(errfile, {"error": traceback.format_exc()})
        return False


def _child_main(task: Task, outfile: Path, errfile: Path) -> None:
    """Run one task inside a worker process and write its result file.

    Exits 0 iff the result file was written; any failure (including one
    inside the experiment's ``check``) writes a traceback to the error
    file and exits 1.
    """
    spec = task.spec

    def run() -> list[dict]:
        result = resolve_callable(spec.module, spec.func)(
            seed=task.seed, **task.params)
        if spec.check:
            resolve_callable(spec.module, spec.check)(result)
        return _normalize_tables(result, spec.title, spec.header)

    if not write_result(outfile, errfile, run):
        sys.exit(1)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

@dataclass
class _Running:
    task: Task
    proc: mp.process.BaseProcess
    outfile: Path
    errfile: Path
    started: float
    attempts: int


def _spawn(task: Task, outfile: Path, errfile: Path,
           attempts: int) -> _Running:
    # the forked child inherits the task: nothing is pickled
    proc = start(_child_main, task, outfile, errfile)
    return _Running(task=task, proc=proc, outfile=outfile, errfile=errfile,
                    started=time.perf_counter(), attempts=attempts)


def read_result(outfile: Path, errfile: Path) -> tuple[dict | None,
                                                     str | None]:
    """``(payload, error)`` from a one-shot worker's files: the complete
    result file's content, else the error file's traceback (the file is
    unlinked once read), else ``(None, None)`` — torn reads included."""
    try:
        payload = json.loads(outfile.read_text())
    except (OSError, ValueError):
        payload = None
    if isinstance(payload, dict) and "values" in payload:
        return payload, None
    try:
        error = json.loads(errfile.read_text()).get("error")
    except (OSError, ValueError):
        return None, None
    if error is not None:
        errfile.unlink(missing_ok=True)
    return None, error


def _read_result(run: _Running) -> TaskResult | None:
    """Turn a finished worker's files into a TaskResult (None = retry)."""
    payload, error = read_result(run.outfile, run.errfile)
    if payload is not None:
        return TaskResult.from_file(run.task, "ok", payload, run.attempts)
    if run.attempts <= run.task.spec.retries:
        return None  # transient failure: retry
    return TaskResult(task=run.task, status="error", attempts=run.attempts,
                      duration_s=time.perf_counter() - run.started,
                      error=error or
                      f"worker exited with code {run.proc.exitcode} "
                      "and no result")


def execute(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    journal: RunJournal | None = None,
    use_cache: bool = True,
    progress: Callable[[TaskResult], None] | None = None,
) -> list[TaskResult]:
    """Run ``tasks`` with at most ``jobs`` concurrent worker processes.

    Returns results in the order of ``tasks`` regardless of completion
    order.  Cached results short-circuit without spawning a worker.
    """
    jobs = max(1, int(jobs))
    results: dict[str, TaskResult] = {}
    scratch = Path(tempfile.mkdtemp(prefix="repro-lab-"))

    def emit(res: TaskResult) -> None:
        results[res.task.key] = res
        if journal is not None:
            journal.record(
                "task", spec=res.task.spec.name, seed=res.task.seed,
                key=res.task.key, status=res.status,
                duration_s=round(res.duration_s, 6),
                peak_rss_kb=res.peak_rss_kb,
                counters=jsonify(res.counters),
                attempts=res.attempts,
                error=res.error)
        if progress is not None:
            progress(res)

    pending: list[Task] = []
    for task in tasks:
        hit = cache.get(task.key) if (cache is not None and use_cache) \
            else None
        if hit is not None and "values" in hit:
            emit(TaskResult.from_file(task, "cached", hit))
        else:
            pending.append(task)

    running: list[_Running] = []
    queue = list(pending)
    try:
        while queue or running:
            while queue and len(running) < jobs:
                task = queue.pop(0)
                outfile = (cache.path(task.key) if cache is not None
                           else scratch / f"{task.key}.json")
                errfile = scratch / f"{task.key}.err.json"
                running.append(_spawn(task, outfile, errfile, 1))
            time.sleep(_POLL_S)
            still: list[_Running] = []
            for run in running:
                elapsed = time.perf_counter() - run.started
                if run.proc.is_alive():
                    if elapsed >= run.task.spec.timeout_s:
                        stop(run.proc)
                        emit(TaskResult(task=run.task, status="timeout",
                                        duration_s=elapsed,
                                        attempts=run.attempts,
                                        error=f"timed out after "
                                              f"{run.task.spec.timeout_s:g}s"
                                        ))
                    else:
                        still.append(run)
                    continue
                run.proc.join()
                res = _read_result(run)
                stop(run.proc)
                if res is None:  # retry a transient crash
                    still.append(_spawn(run.task, run.outfile,
                                        run.errfile, run.attempts + 1))
                else:
                    emit(res)
            running = still
    except BaseException:
        for run in running:
            stop(run.proc)
        if journal is not None:
            journal.record("run_interrupted",
                           completed=len(results), total=len(tasks))
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return [results[t.key] for t in tasks]
