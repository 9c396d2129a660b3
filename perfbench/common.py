"""Shared helpers: statistics, host record, process gauges, result line.

Everything here is workload-agnostic.  The benchmark's contract with its
caller is the *last* line of standard output: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
other line is human-readable context (sample counts, host record,
check failures) and may change freely.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def require_source_tree() -> None:
    """Put ``src/`` on the import path, or exit non-zero without a result.

    The benchmark measures the program in the checkout it sits in; a
    directory holding only the benchmark has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_quantile(values, q: float, *, beyond: int = 10) -> float | None:
    """The ``q`` quantile, or None unless ``beyond`` samples exceed it.

    A percentile is only reported where at least ten samples of the
    run lie beyond it; p95 therefore needs 200 samples.
    """
    if len(values) * (1.0 - q) < beyond:
        return None
    return quantile(values, q)


def vm_hwm_mb() -> float:
    """Peak resident set size (VmHWM) of this process, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def cpu_seconds() -> float:
    """User+system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children() -> list[int]:
    """Pids of this process's children, exited ones included."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue                     # exited while we looked
        # the command name is parenthesised and may hold spaces
        if int(stat[stat.rfind(")") + 2:].split()[1]) == me:
            kids.append(int(entry))
    return kids


def _ended(pid: int) -> bool:
    """Reap child ``pid`` if it has exited; True once it has."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:            # reaped elsewhere
        return True


def _command(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()[:120]


def stop_children(grace_s: float = 5.0) -> list[str]:
    """Stop every process this one started, wait for each to end, and
    return those the program left running.

    The first shared-memory segment the program creates starts
    multiprocessing's resource tracker, a helper that lives until its
    pipe closes -- otherwise just *after* this process exits.  It is
    shut down here, last, because any other child may hold its pipe
    open, and it is not reported.  Any other live child is a process
    the program failed to reap: it gets SIGTERM, then SIGKILL after
    ``grace_s``, and is reported.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    helper = getattr(tracker, "_pid", None)
    left = [pid for pid in _children() if pid != helper and not _ended(pid)]
    report = [f"pid {pid}: {_command(pid)}" for pid in left]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:   # reaped elsewhere
                pass
        deadline = time.monotonic() + grace_s
        while left and time.monotonic() < deadline:
            time.sleep(0.02)
            left = [pid for pid in left if not _ended(pid)]
    if helper is not None:
        tracker._stop()                  # closes its pipe, waits for it
    return report


def host_record(seed: int) -> dict:
    import numpy
    return {"cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seed": seed}


def emit(*, correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict, notes: list[str], host: dict) -> None:
    """Print context lines, then the one-line JSON result (last line)."""
    print("host: " + json.dumps(host, sort_keys=True))
    for note in notes:
        print(note)
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)
