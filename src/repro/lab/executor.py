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
state can corrupt a run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from .. import instrument
from .cache import ResultCache, atomic_write_json, jsonify
from .journal import RunJournal
from .spec import Task, resolve_callable

__all__ = ["TaskResult", "execute", "mp_context", "reap_process",
           "terminate_process"]

_POLL_S = 0.01
_KILL_GRACE_S = 0.5

#: Signals whose parent-side handlers a fork-started worker must shed
#: (see :func:`reset_inherited_signals`).
INHERITED_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


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


def reset_inherited_signals() -> None:
    """Detach a fork-started worker from its parent's signal plumbing.

    A worker forked from an asyncio parent inherits the parent's
    Python-level signal handlers *and* its wakeup fd — a dup of the
    event loop's self-pipe.  If such a worker is then SIGTERMed (batch
    reap, deadline kill, cancel-the-loser), CPython's signal trampoline
    writes the signum into that shared pipe and the PARENT's loop
    dispatches its own SIGTERM callback: the server shuts itself down
    because its worker died.  Restoring default dispositions and
    clearing the wakeup fd first thing in the child severs the link.

    A parent that blocks these signals around ``Process.start`` (see
    :func:`repro.serve.pool.run_batch`) closes the window before this
    reset runs: the child is born with them blocked, and they are
    unblocked only here, after the defaults are back — a SIGTERM that
    arrived early is then delivered to the default handler.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass                        # non-main thread or closed fd
    for sig in INHERITED_SIGNALS:
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):
            pass
    signal.pthread_sigmask(signal.SIG_UNBLOCK, INHERITED_SIGNALS)


def _child_main(payload: dict) -> None:
    """Run one task inside a worker process and write its result file.

    Exits 0 iff the result file was written; any failure (including one
    inside the experiment's ``check``) writes a traceback to the error
    file and exits 1.
    """
    reset_inherited_signals()
    out = Path(payload["outfile"])
    err = Path(payload["errfile"])
    try:
        instrument.reset()
        t0 = time.perf_counter()
        fn = resolve_callable(payload["module"], payload["func"])
        result = fn(seed=payload["seed"], **payload["params"])
        if payload.get("check"):
            resolve_callable(payload["module"], payload["check"])(result)
        duration = time.perf_counter() - t0
        try:
            import resource
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:  # analyze: allow(silent-except) — best-effort metric: resource is POSIX-only and a metrics failure must never fail a finished task
            rss_kb = 0
        atomic_write_json(out, {
            "values": _normalize_tables(result, payload["title"],
                                        payload.get("header")),
            "duration_s": round(duration, 6),
            "peak_rss_kb": int(rss_kb),
            "counters": instrument.snapshot(),
        })
    except BaseException:
        try:
            atomic_write_json(err, {"error": traceback.format_exc()})
        finally:
            os._exit(1)
    os._exit(0)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def mp_context():
    """Preferred multiprocessing context (``fork`` when available).

    Shared with :mod:`repro.serve.pool`, which runs its batch workers
    through the same context so serving and lab runs behave identically.
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


_mp_context = mp_context  # legacy alias


@dataclass
class _Running:
    task: Task
    proc: mp.process.BaseProcess
    outfile: Path
    errfile: Path
    started: float
    attempts: int


def _spawn(ctx, task: Task, outfile: Path, errfile: Path,
           attempts: int) -> _Running:
    payload = {
        "module": task.spec.module,
        "func": task.spec.func,
        "check": task.spec.check,
        "title": task.spec.title,
        "header": list(task.spec.header) if task.spec.header else None,
        "seed": task.seed,
        "params": dict(task.params),
        "outfile": str(outfile),
        "errfile": str(errfile),
    }
    proc = ctx.Process(target=_child_main, args=(payload,), daemon=True)
    proc.start()
    return _Running(task=task, proc=proc, outfile=outfile, errfile=errfile,
                    started=time.perf_counter(), attempts=attempts)


def reap_process(proc: mp.process.BaseProcess) -> None:
    """Release a *finished* worker's OS resources (sentinel fd, handle).

    Without this, every timed-out task leaked a process object until
    interpreter exit — visible as zombie children and "leaked semaphore"
    warnings under repeated timeouts.  ``close()`` raises if the process
    is still alive, so callers must join first.
    """
    try:
        proc.close()
    except Exception:  # analyze: allow(silent-except) — best-effort cleanup: double-close or a still-racing child must never take down the run
        pass


def terminate_process(proc: mp.process.BaseProcess) -> None:
    """Terminate, fully reap, and close one worker process.

    SIGTERM with a grace period, then SIGKILL with an *unbounded* join:
    after SIGKILL the child is guaranteed to exit, and joining without a
    timeout is what actually reaps the zombie (the old bounded join
    could give up and strand it).
    """
    try:
        proc.terminate()
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
    except Exception:  # analyze: allow(silent-except) — load-bearing crash isolation: killing an already-dead/zombie worker must not take down the run
        pass
    reap_process(proc)


_terminate = terminate_process  # legacy alias


def _read_result(run: _Running) -> TaskResult | None:
    """Turn a finished worker's files into a TaskResult (None = retry)."""
    import json

    if run.outfile.exists():
        try:
            payload = json.loads(run.outfile.read_text())
        except ValueError:
            payload = None
        if payload is not None:
            return TaskResult(
                task=run.task, status="ok",
                values=payload.get("values"),
                duration_s=payload.get("duration_s", 0.0),
                peak_rss_kb=payload.get("peak_rss_kb", 0),
                counters=payload.get("counters", {}),
                attempts=run.attempts)
    error = None
    if run.errfile.exists():
        try:
            error = json.loads(run.errfile.read_text()).get("error")
        except ValueError:
            pass
        try:
            run.errfile.unlink()
        except OSError:
            pass
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
    ctx = _mp_context()

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
            emit(TaskResult(task=task, status="cached",
                            values=hit.get("values"),
                            duration_s=hit.get("duration_s", 0.0),
                            peak_rss_kb=hit.get("peak_rss_kb", 0),
                            counters=hit.get("counters", {})))
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
                running.append(_spawn(ctx, task, outfile, errfile, 1))
            time.sleep(_POLL_S)
            still: list[_Running] = []
            for run in running:
                elapsed = time.perf_counter() - run.started
                if run.proc.is_alive():
                    if elapsed >= run.task.spec.timeout_s:
                        terminate_process(run.proc)
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
                reap_process(run.proc)
                if res is None:  # retry a transient crash
                    still.append(_spawn(ctx, run.task, run.outfile,
                                        run.errfile, run.attempts + 1))
                else:
                    emit(res)
            running = still
    except BaseException:
        for run in running:
            terminate_process(run.proc)
        if journal is not None:
            journal.record("run_interrupted",
                           completed=len(results), total=len(tasks))
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return [results[t.key] for t in tasks]
