"""``serve-mesh``: open-loop sync traffic through ``repro mesh up``.

The mesh runs as a child process (router + two shard processes, one
worker slot each, hedging on, one shared cache root), so the load
generator in this process never shares an interpreter lock with the
router.  Every input is built from the seed before the timed phase:
the arrival times (a Poisson process at ``RATE_PER_S``), the planted
instances, and the exact request bodies, serialised the way a client
sends them (CSR JSON or hMETIS text, inline).

Each request is timed from its *due* time, so waiting for one of the
``CONNECTIONS`` connections counts.  No request is retried and no shard
is restarted: whatever the mesh does to a request is what it scored.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import OUT, child_env, median, tail_quantile

RATE_PER_S = 8.0            # offered load: a constant of the workload
CONNECTIONS = 2
RESUBMIT_FRAC = 0.30        # exact resubmissions of an earlier request
MULTILEVEL_FRAC = 0.10      # of new jobs; all of them small
MULTILEVEL_MAX_PINS = 2_000
MIN_PINS, MAX_PINS = 1_400, 22_000
EDGE_SIZE = 4
EPS = 0.05
BRINGUPS = 3                # setup_s is the median over these
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0         # a client gives up after this long
# share of new jobs at or below MULTILEVEL_MAX_PINS (sizes are
# log-uniform), so that MULTILEVEL_FRAC of all new jobs are multilevel
_MULTILEVEL_P = MULTILEVEL_FRAC * np.log(MAX_PINS / MIN_PINS) / np.log(
    MULTILEVEL_MAX_PINS / MIN_PINS)
_READY_RE = re.compile(r"repro mesh listening on ([\d.]+):(\d+)")
_SHARD_RE = re.compile(r"shard (\S+) pid=(\d+) port=(\d+)")


@dataclass
class Job:
    """One distinct solve: the graph the client holds and its body."""

    graph: object
    k: int
    body: bytes


@dataclass
class Sent:
    """What one scheduled request saw."""

    job: int
    due: float
    send: float = 0.0
    recv: float = 0.0
    status: int = 0
    payload: dict | None = None
    error: str | None = None


def _planted(pins: int, k: int, rng: np.random.Generator):
    from repro.generators import streaming_planted_hypergraph
    m = max(pins // EDGE_SIZE, 2 * k)
    m_inter = max(1, m // 10)
    n = max(m, k * EDGE_SIZE)
    graph, _ = streaming_planted_hypergraph(
        n, k, m - m_inter, m_inter, edge_size=EDGE_SIZE, rng=rng)
    return graph


def _graph_spec(graph, fmt: str) -> dict:
    ptr, pins = graph.csr()
    if fmt == "csr":
        return {"csr": {"n": int(graph.n), "ptr": ptr.tolist(),
                        "pins": pins.tolist()}}
    lines = [f"{graph.num_edges} {graph.n}"]
    flat = (pins + 1).tolist()
    bounds = ptr.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        lines.append(" ".join(map(str, flat[a:b])))
    return {"hgr": "\n".join(lines) + "\n"}


def _make_job(rng: np.random.Generator) -> Job:
    pins = int(np.exp(rng.uniform(np.log(MIN_PINS), np.log(MAX_PINS))))
    k = int(rng.choice([4, 8]))
    graph = _planted(pins, k, rng)
    fmt = "csr" if rng.random() < 0.5 else "hgr"
    algorithm = ("multilevel" if graph.num_pins <= MULTILEVEL_MAX_PINS
                 and rng.random() < _MULTILEVEL_P else "greedy")
    obj = {"op": "partition", "graph": _graph_spec(graph, fmt), "k": k,
           "eps": EPS, "metric": "connectivity", "algorithm": algorithm,
           "seed": int(rng.integers(0, 2**31)), "mode": "sync"}
    return Job(graph, k, json.dumps(obj, separators=(",", ":")).encode())


def build_schedule(seed: int, seconds: float):
    """Seeded arrivals and bodies: ``(jobs, [(due_offset, job_index)])``."""
    rng = np.random.default_rng([seed, 0x5E4E])
    count = max(1, int(round(RATE_PER_S * seconds)))
    offsets = np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=count))
    jobs: list[Job] = []
    order: list[int] = []
    for _ in range(count):
        if jobs and rng.random() < RESUBMIT_FRAC:
            order.append(int(rng.integers(0, len(jobs))))
        else:
            jobs.append(_make_job(rng))
            order.append(len(jobs) - 1)
    return jobs, list(zip(offsets.tolist(), order))


def _warmup_bodies(seed: int) -> list[bytes]:
    """Requests outside the schedule that warm both shards' paths."""
    rng = np.random.default_rng([seed, 0x3A7])
    out = []
    for fmt, algorithm in (("csr", "greedy"), ("hgr", "greedy"),
                           ("csr", "multilevel"), ("hgr", "greedy"),
                           ("csr", "greedy"), ("csr", "multilevel")):
        graph = _planted(2_000, 4, rng)
        obj = {"op": "partition", "graph": _graph_spec(graph, fmt), "k": 4,
               "eps": EPS, "metric": "connectivity",
               "algorithm": algorithm,
               "seed": int(rng.integers(0, 2**31)), "mode": "sync"}
        out.append(json.dumps(obj).encode())
    return out


class Mesh:
    """A ``repro mesh up`` child process and what it printed."""

    def __init__(self, tag: str) -> None:
        self.dir = OUT / f"mesh-{tag}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cache = self.dir / "cache"     # fresh cache root per mesh
        self.log_path = self.dir / "mesh.log"
        self.port: int | None = None
        self.shard_pids: dict[str, int] = {}
        self.shard_ports: dict[str, int] = {}
        self.proc: subprocess.Popen | None = None

    def up(self) -> "Mesh":
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "mesh", "up",
                 "--shards", "2", "--workers", "1", "--port", "0",
                 "--cache-dir", str(self.cache)],
                stdout=subprocess.DEVNULL, stderr=log, env=child_env(),
                start_new_session=True)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            for sid, pid, port in _SHARD_RE.findall(text):
                self.shard_pids[sid] = int(pid)
                self.shard_ports[sid] = int(port)
            ready = _READY_RE.search(text)
            if ready:
                self.port = int(ready.group(2))
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.down()
        raise RuntimeError("mesh did not come up:\n"
                           + self.log_path.read_text(errors="replace"))

    def request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """The router's counters; empty if the router does not answer."""
        try:
            _status, raw = self.request("GET", "/metrics")
        except (OSError, http.client.HTTPException):
            return {}
        out = {}
        for line in raw.decode(errors="replace").splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#"):
                try:
                    out[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        return out

    def exited_shards(self) -> list[str]:
        """Shards that exited or closed their listener.

        A shard shutting down gracefully stops accepting connections at
        once but keeps its process until queued work drains, so both
        count: either way the shard has left the mesh.
        """
        gone = []
        for sid, pid in sorted(self.shard_pids.items()):
            if not _alive(pid):
                gone.append(sid)
                continue
            try:
                socket.create_connection(
                    ("127.0.0.1", self.shard_ports[sid]), timeout=2).close()
            except OSError:
                gone.append(sid)
        return gone

    def down(self) -> list[str]:
        """Stop the mesh and wait for it; return processes left behind."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        left = [f"pid {pid} ({sid})"
                for sid, pid in sorted(self.shard_pids.items())
                if _alive(pid)]
        if self.proc is not None:
            if self.proc.poll() is None:
                left.append(f"pid {self.proc.pid} (mesh up)")
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait()
        for pid in self.shard_pids.values():
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        shutil.rmtree(self.dir, ignore_errors=True)
        return left


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _shm_names() -> set[str]:
    return set(glob.glob("/dev/shm/repro*"))


def _fire(port: int, jobs: list[Job], schedule, t0: float) -> list[Sent]:
    """Run the open loop: ``CONNECTIONS`` threads take requests in due
    order; each waits for its request's due time, then sends it."""
    sent = [Sent(job=j, due=t0 + off) for off, j in schedule]
    cursor = iter(range(len(sent)))
    lock = threading.Lock()

    def connection() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                rec = sent[i]
                wait = rec.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                rec.send = time.perf_counter()
                try:
                    conn.request("POST", "/v1/partition",
                                 body=jobs[rec.job].body,
                                 headers={"Content-Type":
                                          "application/json"})
                    resp = conn.getresponse()
                    raw = resp.read()
                    rec.recv = time.perf_counter()
                    rec.status = resp.status
                    payload = json.loads(raw)
                    rec.payload = payload if isinstance(payload, dict) \
                        else None
                except (http.client.HTTPException, OSError,
                        ValueError) as exc:
                    rec.recv = rec.recv or time.perf_counter()
                    rec.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        finally:
            conn.close()

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sent


def _check(sent: list[Sent], jobs: list[Job]):
    """Verify every answer.

    Returns per-request ok flags, the wrong answers, and the requests
    that got no answer (an error status, a timeout, a dropped socket).
    """
    from repro.core import connectivity_cost, is_balanced

    ok = [False] * len(sent)
    problems: list[str] = []
    failures: list[str] = []
    reference: dict[int, list] = {}
    for i, rec in enumerate(sent):
        p = rec.payload
        if rec.error is not None or rec.status != 200 or p is None \
                or p.get("status") != "done":
            why = rec.error or (p or {}).get("error") \
                or (p or {}).get("status") or f"HTTP {rec.status}"
            failures.append(f"request {i}: HTTP {rec.status} {why}")
            continue
        job = jobs[rec.job]
        labels = (p.get("result") or {}).get("labels")
        if not isinstance(labels, list) or len(labels) != job.graph.n:
            problems.append(f"request {i}: no labels for the graph sent")
            continue
        arr = np.asarray(labels, dtype=np.int64)
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= job.k:
            problems.append(f"request {i}: label outside [0, {job.k})")
            continue
        if not is_balanced(arr, EPS, job.k, relaxed=True):
            problems.append(f"request {i}: partition violates balance")
            continue
        conn = connectivity_cost(job.graph, arr, job.k)
        if abs(conn - float(p["result"].get("connectivity", -1))) > 1e-6:
            problems.append(f"request {i}: reported connectivity "
                            f"{p['result'].get('connectivity')} != {conn}")
            continue
        first = reference.setdefault(rec.job, labels)
        if first != labels:
            problems.append(f"request {i}: labels differ from the "
                            "first answer for the same job")
            continue
        ok[i] = True
    return ok, problems, failures


def _bring_up(tag: str, warmup: list[bytes]) -> Mesh:
    mesh = Mesh(tag).up()
    try:
        for body in warmup:
            status, raw = mesh.request("POST", "/v1/partition", body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: HTTP {status} "
                                   f"{raw[:200]!r}")
    except BaseException:
        mesh.down()
        raise
    return mesh


def run(seed: int, seconds: float, trace: bool) -> dict:
    t_setup = time.perf_counter()
    jobs, schedule = build_schedule(seed, seconds)
    warmup = _warmup_bodies(seed)
    bodies_s = time.perf_counter() - t_setup
    shm_before = _shm_names()
    bringups: list[float] = []
    leftovers: list[str] = []
    mesh = None
    for i in range(BRINGUPS):
        t0 = time.perf_counter()
        mesh = _bring_up(f"s{seed}-{i}", warmup)
        bringups.append(time.perf_counter() - t0)
        if i + 1 < BRINGUPS:
            leftovers += mesh.down()
    setup_s = bodies_s + median(bringups)

    cpu0 = _tree_cpu(mesh.proc.pid)
    t0 = time.perf_counter() + 0.05
    try:
        sent = _fire(mesh.port, jobs, schedule, t0)
        t_end = time.perf_counter()
        cpu_s = _tree_cpu(mesh.proc.pid) - cpu0
        router = mesh.metrics()
        exits = mesh.exited_shards()
    finally:
        leftovers += mesh.down()
    leftovers += [f"segment {name}"
                  for name in sorted(_shm_names() - shm_before)]

    ok, problems, failures = _check(sent, jobs)
    done = [r for r, good in zip(sent, ok) if good]
    misses = [r for r in done if not r.payload.get("cached")]
    hits = [r for r in done if r.payload.get("cached")]
    miss_ms = [(r.recv - r.due) * 1e3 for r in misses]
    hit_ms = [(r.recv - r.due) * 1e3 for r in hits]
    out = {
        "attempted": len(sent),
        "failed": len(sent) - len(done),
        "problems": problems,
        "failures": failures,
        "leftovers": leftovers,
        "samples": {"misses": len(misses), "hits": len(hits),
                    "requests": len(sent), "distinct_jobs": len(jobs)},
        "e2e": {
            "setup_s": setup_s,
            "miss_p50_ms": median(miss_ms) if miss_ms else None,
            "miss_p95_ms": tail_quantile(miss_ms, 0.95),
            "hit_p50_ms": median(hit_ms) if hit_ms else None,
        },
        "phase_s": t_end - t0,
        "cpu_s": cpu_s,
    }
    if trace:
        out["layers"] = _layers(sent, done, misses, jobs, router, exits,
                                cpu_s)
    return out


def _tree_cpu(pid: int) -> float:
    """CPU seconds of a process tree (live members, from /proc)."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    pids = {pid}
    frontier = [pid]
    while frontier:
        p = frontier.pop()
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                kids = [int(x) for x in fh.read().split()]
        except OSError:
            kids = []
        for kid in kids:
            if kid not in pids:
                pids.add(kid)
                frontier.append(kid)
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            # utime, stime, cutime, cstime (fields 14-17 of stat)
            total += sum(int(x) for x in fields[11:15]) / tick
        except OSError:
            pass
    return total


def _layers(sent, done, misses, jobs, router, exits, cpu_s) -> dict:
    from repro.serve.protocol import parse_job_request
    from repro.serve.runner import job_key

    parse_ms = []
    for job in jobs:
        t0 = time.perf_counter()
        job_key(parse_job_request(json.loads(job.body)))
        parse_ms.append((time.perf_counter() - t0) * 1e3)
    hop_ms = [((r.recv - r.send) - float(r.payload["latency_s"])) * 1e3
              for r in done]
    qd_ms = [(float(r.payload["latency_s"]) - float(r.payload["duration_s"]))
             * 1e3 for r in misses]
    solve_ms = [float(r.payload["duration_s"]) * 1e3 for r in misses]
    late_ms = [(r.send - r.due) * 1e3 for r in sent]
    hits = sum(1 for r in done if r.payload.get("cached"))
    return {
        "mesh.hop_p50_ms": median(hop_ms) if hop_ms else None,
        "serve.protocol.parse_key_ms": median(parse_ms),
        "serve.jobs.queue_dispatch_p50_ms": median(qd_ms) if qd_ms else None,
        "serve.jobs.queue_dispatch_p95_ms": tail_quantile(qd_ms, 0.95),
        "serve.runner.solve_p50_ms": median(solve_ms) if solve_ms else None,
        "lab.cache.hit_frac": hits / len(done) if done else None,
        "mesh.router.hedge_frac": (
            router.get("repro_mesh_hedge_started_total", 0.0) / len(sent)),
        "mesh.shard_exits": float(len(exits)),
        "mesh.router.down_marks": router.get(
            "repro_mesh_shard_down_marks_total", 0.0),
        "loadgen.late_p95_ms": tail_quantile(late_ms, 0.95),
        "process.cpu_s": cpu_s,
    }
