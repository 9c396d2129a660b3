"""Forked worker processes: the one module of ``repro`` that starts them.

:func:`start` runs one-shot children (lab tasks, serve batches),
:class:`Workers` persistent ones with a pipe each (the sub-round pool),
and :func:`fork_map` maps a function over forked workers (V-cycle
repetitions, portfolio candidates, analyzer extraction).  The choices
they share are made here once:

* **fork only.**  Children inherit the parent's memory, so a map's
  inputs never cross a pipe.  Where ``fork`` is missing, or the caller
  is itself a (daemonic) worker, :class:`~repro.errors.WorkerPoolError`
  sends callers to their serial path, which returns the same labels.
* **signals.**  Children are forked with ``INHERITED_SIGNALS`` blocked
  and unblock them only in :func:`reset_inherited_signals`.
* **pipe ends.**  Every forked child closes the parent-side ends of all
  open :class:`Workers` first, so a worker sees EOF when its parent
  closes its end or dies.
* **reaping.**  :func:`stop` terminates, kills if need be, and reaps.

Targets return rather than call ``os._exit``, so multiprocessing's exit
hooks (finalizers registered in the child) run.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
from multiprocessing import connection
from multiprocessing import util as mp_util

from ..errors import WorkerPoolError

__all__ = ["INHERITED_SIGNALS", "Workers", "fork_map", "peak_rss_bytes",
           "reset_inherited_signals", "start", "stop"]

#: Signals whose parent-side handlers a forked worker must shed
#: (see :func:`reset_inherited_signals`).
INHERITED_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)

_KILL_GRACE_S = 0.5
_EXIT_WAIT_S = 5.0      # Workers.close(): time to leave before a stop()


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

    :func:`start` blocks these signals around the fork, which closes the
    window before this reset runs: the child is born with them blocked,
    and they are unblocked only here, after the defaults are back — a
    SIGTERM that arrived early is then delivered to the default handler.
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


def _bootstrap(target, args) -> None:
    reset_inherited_signals()
    target(*args)


def start(target, *args) -> mp.process.BaseProcess:
    """Fork a daemonic child that runs ``target(*args)``; return it.

    The child resets its inherited signal state before ``target`` runs.
    Raises :class:`WorkerPoolError` when ``fork`` is unavailable, when
    the caller is itself a daemonic worker, or when the fork fails.
    """
    if "fork" not in mp.get_all_start_methods():
        raise WorkerPoolError("worker processes need the fork start "
                              "method (POSIX only)")
    if mp.current_process().daemon:
        raise WorkerPoolError("a daemonic worker cannot start workers")
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=_bootstrap, args=(target, args), daemon=True)
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, INHERITED_SIGNALS)
    try:
        proc.start()
    except OSError as exc:
        raise WorkerPoolError(f"cannot start a worker: {exc}") from exc
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
    return proc


def stop(proc: mp.process.BaseProcess) -> None:
    """Terminate, reap and close one worker; harmless on a finished one.

    SIGTERM with a grace period, then SIGKILL with an *unbounded* join:
    after SIGKILL the child is guaranteed to exit, and only the join
    reaps the zombie.  ``close()`` then releases the sentinel fd.
    """
    try:
        proc.terminate()
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        proc.close()
    except Exception:  # analyze: allow(silent-except) — load-bearing crash isolation: stopping an already-closed worker must not take down the caller
        pass


class Workers:
    """``n`` persistent forked children, each with its own pipe.

    Child ``i`` runs ``target(conn, *args)``, ``conn`` being its end of
    pipe ``i``; :attr:`conns` holds the parent's ends.  Every process
    forked while this object is open closes those ends before it runs
    anything, so a child blocked in ``recv`` sees EOF once the parent
    closes its end or dies.  :meth:`close` closes the ends, lets the
    children leave, and reaps them.
    """

    def __init__(self, target, n: int, *args) -> None:
        self.conns: list = []
        self._procs: list = []
        mp_util.register_after_fork(self, Workers._drop_parent_ends)
        try:
            for _ in range(max(1, int(n))):
                try:
                    parent_conn, child_conn = mp.Pipe()
                except OSError as exc:
                    raise WorkerPoolError(f"cannot open a pipe: {exc}") \
                        from exc
                self.conns.append(parent_conn)
                try:
                    self._procs.append(start(target, child_conn, *args))
                finally:
                    child_conn.close()
        except BaseException:
            self.close()
            raise

    def _drop_parent_ends(self) -> None:
        # runs in every freshly forked child, before its target
        for conn in self.conns:
            conn.close()
        self.conns = []

    def close(self) -> None:
        """Close the parent's ends, wait for the children, reap them."""
        for conn in self.conns:
            conn.close()
        for proc in self._procs:
            proc.join(_EXIT_WAIT_S)
            stop(proc)
        self.conns = []
        self._procs = []


def _map_worker(conn, fn, items) -> None:
    """Answer each index the parent sends with ``fn(*items[i])``."""
    while True:
        try:
            i = conn.recv()
        except (EOFError, OSError):
            return                      # the parent closed its end
        try:
            reply = (True, fn(*items[i]))
        except Exception as exc:  # analyze: allow(silent-except) — not silent: fork_map re-raises it in the parent
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return


def fork_map(fn, items, jobs: int) -> list:
    """``[fn(*item) for item in items]``, over up to ``jobs`` forked workers.

    The workers inherit ``items``, so only indices and results cross
    the pipes.  Each next index goes to whichever worker answers first;
    results come back in item order, so the output does not depend on
    ``jobs``.  A worker's exception is re-raised here.  Runs in-process
    when one worker would do or when workers cannot start.
    """
    items = list(items)
    n = min(int(jobs), len(items))
    try:
        pool = Workers(_map_worker, n, fn, items) if n > 1 else None
    except WorkerPoolError:
        pool = None
    if pool is None:
        return [fn(*item) for item in items]
    results: list = [None] * len(items)
    busy = {}
    try:
        for i, conn in enumerate(pool.conns):
            conn.send(i)
            busy[conn] = i
        nxt = len(busy)
        while busy:
            for conn in connection.wait(list(busy)):
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerPoolError(
                        f"a map worker died: {exc!r}") from exc
                if not ok:
                    raise value
                results[busy.pop(conn)] = value
                if nxt < len(items):
                    conn.send(nxt)
                    busy[conn] = nxt
                    nxt += 1
    finally:
        pool.close()
    return results


def peak_rss_bytes() -> int:
    """This process's peak RSS (VmHWM) in bytes; 0 if unreadable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, OSError, ValueError):
        return 0
