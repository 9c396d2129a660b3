"""Job request schema, validation, and content addressing.

A job request is a JSON object::

    {
      "op":        "partition" | "schedule" | "recognize" | "simulate",
      "graph":     {"hgr": "<hMETIS text>"}
                 | {"n": 4, "edges": [[0,1],[1,2,3]],
                    "node_weights": [...]?, "edge_weights": [...]?}
                 | {"csr": {"n": 4, "ptr": [0,2,5], "pins": [0,1,1,2,3]}}
                 | {"generator": {"kind": "random", "n": 100, "k": 4,
                                  "density": 0.05, "seed": 0}},
      "k":         2,            # parts / processors
      "eps":       0.03,         # balance slack (partition only)
      "metric":    "connectivity" | "cut-net",
      "algorithm": "multilevel" | "recursive" | "greedy" | "spectral"
                 | "random" | "exact",
      "seed":      0,
      # simulate-op extras (what-if planning; see repro.sim):
      "scheduler": "heft" | "cp-list" | "work-steal" | "locked" | "random",
      "imode":     "exact" | "mean" | "blind",
      "dist":      "fixed" | "uniform" | "lognormal",
      "topology":  {"b": [2, 4], "g": [4.0, 1.0]},   # Definition 7.1
      "latency":   0.0,
      # serving controls — NOT part of the cache identity:
      "deadline_s": 10.0,        # per-request budget (queue + compute)
      "mode":      "auto" | "sync" | "async",
      "use_cache": true
    }

Validation failures raise :class:`~repro.errors.ServeProtocolError`
(mapped to HTTP 400); they never surface as bare tracebacks because the
server accepts payloads from untrusted clients.

The *solve parameters* (everything except the serving controls) plus the
seed are content-addressed through :func:`repro.lab.cache.task_key`
with the serve runner's spec, so results land in the same
``.lab-cache/`` store the lab executor uses and survive server
restarts: an identical resubmission is a cache hit, not a recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..algorithms import ALGORITHMS
from ..errors import ServeProtocolError
from ..generators.factory import WORKLOAD_KINDS
from ..io.hmetis import hgr_content_lines

__all__ = [
    "JobRequest",
    "OPS",
    "build_graph",
    "estimate_pins",
    "parse_job_request",
]

OPS = ("partition", "schedule", "recognize", "simulate")
METRICS = ("connectivity", "cut-net")
MODES = ("auto", "sync", "async")

#: Hard ceiling on instance size accepted by the service: pins, and also
#: nodes (and a stream's edges), since arrays are sized by those too.
#: Keeps a single hostile request from exhausting worker memory.
MAX_PINS = 5_000_000


@dataclass(frozen=True)
class JobRequest:
    """A validated job: solve parameters plus serving controls."""

    params: Mapping[str, Any]       # canonical, cache-keyed solve params
    seed: int
    deadline_s: float | None = None
    mode: str = "auto"
    use_cache: bool = True
    est_pins: int = 0               # admission-time size estimate

    @property
    def op(self) -> str:
        return self.params["op"]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ServeProtocolError(msg)


def _as_int(obj: Any, what: str) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool),
             f"{what} must be an integer, got {obj!r}")
    return obj


def _as_num(obj: Any, what: str) -> float:
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool),
             f"{what} must be a number, got {obj!r}")
    return float(obj)


def _int_list(obj: Any, what: str) -> list[int]:
    _require(isinstance(obj, list), f"{what} must be a list")
    return [_as_int(v, f"{what} entry") for v in obj]


def _num_list(obj: Any, what: str) -> list[float]:
    _require(isinstance(obj, list), f"{what} must be a list")
    return [_as_num(v, f"{what} entry") for v in obj]


def _parse_graph(graph: Any) -> tuple[dict, int]:
    """Validate the graph spec; return (canonical spec, estimated pins)."""
    _require(isinstance(graph, dict), "'graph' must be an object")
    kinds = [k for k in ("hgr", "edges", "csr", "generator", "stream")
             if k in graph]
    _require(len(kinds) == 1,
             "'graph' must contain exactly one of 'hgr', 'edges', 'csr', "
             f"'generator', 'stream'; got {sorted(graph)}")
    kind = kinds[0]
    if kind == "stream":
        return _parse_stream_ref(graph["stream"])
    if kind == "hgr":
        text = graph["hgr"]
        _require(isinstance(text, str) and text.strip() != "",
                 "'graph.hgr' must be non-empty hMETIS text")
        # the header's counts size the worker's arrays, so they are
        # bounded here; full validation happens in the worker via
        # parse_hgr so a parse error is contained there too
        m, n = _hgr_counts(text)
        _require(m <= MAX_PINS and n <= MAX_PINS,
                 f"'graph.hgr' header counts must be at most {MAX_PINS}")
        # token count upper-bounds pins
        return {"hgr": text}, len(text.split()) + n
    if kind == "edges":
        n = _as_int(graph.get("n"), "'graph.n'")
        _require(0 <= n <= MAX_PINS, f"'graph.n' must be in 0..{MAX_PINS}")
        edges = graph["edges"]
        _require(isinstance(edges, list), "'graph.edges' must be a list")
        out = []
        est = 0
        for e in edges:
            pins = _int_list(e, "'graph.edges' hyperedge")
            _require(all(0 <= v < n for v in pins),
                     f"hyperedge pin out of range 0..{n - 1}")
            est += len(pins)
            out.append(pins)
        spec: dict[str, Any] = {"n": n, "edges": out}
        if graph.get("node_weights") is not None:
            w = _num_list(graph["node_weights"], "'graph.node_weights'")
            _require(len(w) == n, "'graph.node_weights' has wrong length")
            spec["node_weights"] = w
        if graph.get("edge_weights") is not None:
            w = _num_list(graph["edge_weights"], "'graph.edge_weights'")
            _require(len(w) == len(out),
                     "'graph.edge_weights' has wrong length")
            spec["edge_weights"] = w
        return spec, est
    if kind == "csr":
        csr = graph["csr"]
        _require(isinstance(csr, dict), "'graph.csr' must be an object")
        n = _as_int(csr.get("n"), "'graph.csr.n'")
        ptr = _int_list(csr.get("ptr"), "'graph.csr.ptr'")
        pins = _int_list(csr.get("pins"), "'graph.csr.pins'")
        _require(0 <= n <= MAX_PINS,
                 f"'graph.csr.n' must be in 0..{MAX_PINS}")
        _require(len(ptr) >= 1 and ptr[0] == 0 and ptr[-1] == len(pins),
                 "'graph.csr.ptr' must start at 0 and end at len(pins)")
        _require(all(a <= b for a, b in zip(ptr, ptr[1:])),
                 "'graph.csr.ptr' must be nondecreasing")
        _require(all(0 <= v < n for v in pins),
                 f"'graph.csr.pins' entry out of range 0..{n - 1}")
        return {"csr": {"n": n, "ptr": ptr, "pins": pins}}, len(pins)
    gen = graph["generator"]
    _require(isinstance(gen, dict), "'graph.generator' must be an object")
    g_kind = gen.get("kind")
    _require(g_kind in WORKLOAD_KINDS,
             f"unknown generator kind {g_kind!r}; "
             f"known: {', '.join(WORKLOAD_KINDS)}")
    spec = {"kind": g_kind}
    for key, default in (("n", 100), ("k", 4), ("seed", 0)):
        val = gen.get(key, default)
        spec[key] = _as_int(val, f"'graph.generator.{key}'")
    spec["density"] = _as_num(gen.get("density", 0.05),
                              "'graph.generator.density'")
    _require(spec["n"] > 0, "'graph.generator.n' must be positive")
    _require(spec["n"] <= 500_000, "'graph.generator.n' too large")
    # generators emit O(n)–O(n log n) pins; coarse admission estimate
    est = int(spec["n"]) * 4
    return {"generator": spec}, est


def _hgr_counts(text: str) -> tuple[int, int]:
    """``(m, n)`` of the header line of hMETIS text, found as
    ``parse_hgr`` finds it.  A count that is missing, negative or not an
    integer reads 0: ``parse_hgr`` rejects it in the worker."""
    header = next(hgr_content_lines(text), (0, ""))[1].split()
    counts = [0, 0]
    for i, tok in enumerate(header[:2]):
        try:
            counts[i] = max(int(tok), 0)
        except ValueError:
            continue
    return counts[0], counts[1]


def _parse_stream_ref(ref: Any) -> tuple[dict, int]:
    """Validate a streamed-graph content address (see repro.serve.stream).

    This spec is what a ``/v1/stream`` upload is cache-keyed under; a
    later JSON submit may carry it too (resubmission of a completed
    key), but can only be *answered* from the cache — the binary
    payload itself never travels through this parser.
    """
    _require(isinstance(ref, dict), "'graph.stream' must be an object")
    digest = ref.get("digest")
    _require(isinstance(digest, str) and len(digest) == 64
             and all(c in "0123456789abcdef" for c in digest),
             "'graph.stream.digest' must be 64 lowercase hex chars")
    dims = {}
    for key in ("n", "m", "pins"):
        dims[key] = _as_int(ref.get(key), f"'graph.stream.{key}'")
        _require(dims[key] >= 0, f"'graph.stream.{key}' must be >= 0")
    _require(dims["n"] <= MAX_PINS,
             f"'graph.stream.n' must be at most {MAX_PINS}")
    spec = {"digest": digest, "n": dims["n"], "m": dims["m"],
            "pins": dims["pins"]}
    return {"stream": spec}, dims["pins"]


def _parse_algorithm(obj: dict) -> str:
    algorithm = obj.get("algorithm", "multilevel")
    # a JSON list or object is unhashable: test the type before the keys
    _require(isinstance(algorithm, str) and algorithm in ALGORITHMS,
             f"unknown algorithm {algorithm!r}; "
             f"known: {', '.join(ALGORITHMS)}")
    return algorithm


#: Scheduler / imode / distribution vocabularies for the simulate op.
#: Kept as literals (not imports from repro.sim) so request validation
#: stays import-light in the asyncio server process.
SIM_SCHEDULERS = ("heft", "cp-list", "work-steal", "locked", "random")
SIM_IMODES = ("exact", "mean", "blind")
SIM_DISTS = ("fixed", "uniform", "lognormal")


def _parse_simulate(obj: Any, params: dict[str, Any]) -> None:
    """Validate simulate-op extras into canonical solve params.

    ``k`` (already parsed) is the flat machine size; a ``topology``
    object ``{"b": [...], "g": [...]}`` overrides it with a Definition
    7.1 hierarchy (``k`` then must equal the leaf count, or be
    omitted).
    """
    scheduler = obj.get("scheduler", "heft")
    _require(scheduler in SIM_SCHEDULERS,
             f"unknown scheduler {scheduler!r}; "
             f"known: {', '.join(SIM_SCHEDULERS)}")
    params["scheduler"] = scheduler
    imode = obj.get("imode", "exact")
    _require(imode in SIM_IMODES,
             f"unknown imode {imode!r}; known: {', '.join(SIM_IMODES)}")
    params["imode"] = imode
    dist = obj.get("dist", "lognormal")
    _require(dist in SIM_DISTS,
             f"unknown dist {dist!r}; known: {', '.join(SIM_DISTS)}")
    params["dist"] = dist
    topo = obj.get("topology")
    if topo is not None:
        _require(isinstance(topo, dict), "'topology' must be an object")
        b = _int_list(topo.get("b"), "'topology.b'")
        g = _num_list(topo.get("g"), "'topology.g'")
        _require(1 <= len(b) <= 8 and len(b) == len(g),
                 "'topology' needs 1..8 levels with matching b/g")
        _require(all(x >= 1 for x in b), "'topology.b' entries must be >= 1")
        _require(all(x > 0 for x in g), "'topology.g' entries must be > 0")
        _require(all(g[i] >= g[i + 1] for i in range(len(g) - 1)),
                 "'topology.g' must be monotonically decreasing")
        leaves = 1
        for x in b:
            leaves *= x
        _require(leaves <= 4096, "'topology' has too many leaves (> 4096)")
        _require("k" not in obj or obj["k"] == leaves,
                 f"'k' ({obj.get('k')}) must equal the topology leaf "
                 f"count ({leaves}) when both are given")
        params["k"] = leaves
        params["topology"] = {"b": b, "g": g}
    latency = _as_num(obj.get("latency", 0.0), "'latency'")
    _require(latency >= 0, "'latency' must be >= 0")
    params["latency"] = latency
    params["algorithm"] = _parse_algorithm(obj)


def parse_job_request(obj: Any) -> JobRequest:
    """Validate a decoded JSON payload into a :class:`JobRequest`."""
    _require(isinstance(obj, dict), "request body must be a JSON object")
    op = obj.get("op", "partition")
    _require(op in OPS, f"unknown op {op!r}; known: {', '.join(OPS)}")
    graph_spec, est = _parse_graph(obj.get("graph"))
    _require(est <= MAX_PINS,
             f"instance too large: ~{est} pins exceeds the server "
             f"limit of {MAX_PINS}")
    params: dict[str, Any] = {"op": op, "graph": graph_spec}
    if op in ("partition", "schedule", "simulate"):
        k = _as_int(obj.get("k", 2), "'k'")
        _require(1 <= k <= 4096, "'k' must be in 1..4096")
        params["k"] = k
    if op == "simulate":
        _parse_simulate(obj, params)
    if op == "partition":
        eps = _as_num(obj.get("eps", 0.03), "'eps'")
        _require(0 <= eps <= 1, "'eps' must be in [0, 1]")
        params["eps"] = eps
        metric = obj.get("metric", "connectivity")
        _require(metric in METRICS,
                 f"unknown metric {metric!r}; known: {', '.join(METRICS)}")
        params["metric"] = metric
        params["algorithm"] = _parse_algorithm(obj)
    seed = _as_int(obj.get("seed", 0), "'seed'")
    deadline = obj.get("deadline_s")
    if deadline is not None:
        deadline = _as_num(deadline, "'deadline_s'")
        _require(deadline > 0, "'deadline_s' must be positive")
    mode = obj.get("mode", "auto")
    _require(mode in MODES, f"unknown mode {mode!r}; known: "
             f"{', '.join(MODES)}")
    use_cache = obj.get("use_cache", True)
    _require(isinstance(use_cache, bool), "'use_cache' must be a boolean")
    return JobRequest(params=params, seed=seed, deadline_s=deadline,
                      mode=mode, use_cache=use_cache, est_pins=est)


def build_graph(params: Mapping[str, Any]):
    """Materialise the hypergraph named by canonical solve params.

    Runs inside batch workers, and in the server process for large
    inline specs (see :class:`~repro.serve.jobs.JobManager`); raises
    :class:`ReproError` subclasses on anything malformed (an hgr upload
    is fully validated here).
    """
    from ..core.hypergraph import Hypergraph

    spec = params["graph"]
    if "stream" in spec:
        # a streamed graph reaches workers only as the parsed graph its
        # job holds; seeing the bare content address here means the
        # payload is gone — e.g. a cache-miss resubmission by digest
        from ..errors import ServeProtocolError
        raise ServeProtocolError(
            "streamed graph payload is not resident on this shard; "
            "re-upload it via POST /v1/stream")
    if "hgr" in spec:
        from ..io.hmetis import parse_hgr
        return parse_hgr(spec["hgr"], name="upload")
    if "edges" in spec:
        return Hypergraph(spec["n"], spec["edges"],
                          node_weights=spec.get("node_weights"),
                          edge_weights=spec.get("edge_weights"))
    if "csr" in spec:
        import numpy as np
        csr = spec["csr"]
        return Hypergraph.from_csr(
            csr["n"],
            np.asarray(csr["ptr"], dtype=np.int64),
            np.asarray(csr["pins"], dtype=np.int64))
    gen = spec["generator"]
    from ..generators.factory import make_workload
    return make_workload(gen["kind"], n=gen["n"], k=gen["k"],
                         density=gen["density"], seed=gen["seed"])


def estimate_pins(request: JobRequest) -> int:
    """Admission-time size estimate (pins) for batching decisions."""
    return request.est_pins
