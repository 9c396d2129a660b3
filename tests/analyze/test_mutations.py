"""Mutation audit of ``repro analyze``: real bugs re-injected at real sites.

Each row applies exact ``(old, new)`` replacements to one file of a
temporary copy of ``src/``, ``tests/`` and ``benchmarks/`` and checks
which rules report the mutant that the unmutated copy does not.  The
rows are the evidence behind the audit table in ``docs/ANALYZE.md``:
every rule keeps at least one row that it alone reports.

A row that no rule reports either names the tier-1 test that fails
under the same mutation (``test``) or is a known miss (``test`` is
None and the row says why).  A replacement that no longer matches
fails its row: move the row to the site's new shape instead of
deleting it.

The copy is analysed once with the incremental cache, so each row
re-extracts only the file it mutates.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analyze.engine import run_analysis
from repro.analyze.passes import RULE_META

ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "tests", "benchmarks")


@dataclass(frozen=True)
class Row:
    id: str
    path: str                          # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # each ``old`` matches exactly once
    rules: frozenset[str]              # the rules that must report it
    test: str | None = None            # the tier-1 test that kills it


def row(id, path, *edits, rules=(), test=None) -> Row:
    return Row(id, path, tuple(edits), frozenset(rules), test)


GREEDY = "src/repro/partitioners/greedy.py"
EXPERIMENTS = "src/repro/lab/experiments.py"
EXECUTOR = "src/repro/lab/executor.py"
SERVE_POOL = "src/repro/serve/pool.py"
JOBS = "src/repro/serve/jobs.py"
ROUTER = "src/repro/mesh/router.py"
WORKERS = "src/repro/core/workers.py"
KERNELS = "src/repro/core/kernels.py"

GREEDY_ORDER = "    for v in gen.permutation(graph.n).tolist():\n"
GREEDY_GEN = ("    gen = rng if isinstance(rng, np.random.Generator) "
              "else np.random.default_rng(rng)\n"
              "    caps = weight_caps(graph, k, eps, relaxed=relaxed).tolist()\n")
F5_RNG = ("    rng = np.random.default_rng(seed)\n"
          "    rows = []\n"
          "    for width in widths:\n"
          "        d = random_layered_dag([width] * layers, density, rng)\n"
          "        asap")
JOURNAL_OPEN = '        self._fh = open(self.path, "a")'
JOURNAL_PRAGMA = ("  # repro: allow[async-blocking] — construction-time "
                  "open, not on a request path")
BATCHER_GET = ("        while not self._stopping:\n"
               "            job = await self._queue.get()\n")

ROWS = [
    # -- seeded replayability ------------------------------------------
    row("global-shuffle-in-greedy", GREEDY,
        (GREEDY_ORDER, "    order = np.arange(graph.n)\n"
                       "    np.random.shuffle(order)\n"
                       "    for v in order.tolist():\n"),
        rules={"determinism", "seed-discipline"}),
    row("global-shuffle-in-bench-runner",
        "benchmarks/bench_fig1_hyperdag.py",
        ("    rows = []\n    for width in widths:\n",
         "    rows = []\n    widths = list(widths)\n"
         "    np.random.shuffle(widths)\n    for width in widths:\n"),
        rules={"determinism"}),
    row("global-seed-in-cli", "src/repro/cli.py",
        ("def _partition(args) -> int:\n",
         "def _partition(args) -> int:\n    np.random.seed(args.seed)\n"),
        rules={"seed-discipline"}),
    row("wall-clock-seed-in-greedy", GREEDY,
        ("from collections import deque\n",
         "import time\nfrom collections import deque\n"),
        (GREEDY_GEN, GREEDY_GEN.replace(
            "default_rng(rng)",
            "default_rng(int(time.time()) if rng is None else rng)")),
        rules={"determinism"}),
    row("module-global-generator-in-greedy", GREEDY,
        ("__all__ = ", "_RNG = np.random.default_rng(0)\n__all__ = "),
        (GREEDY_ORDER, GREEDY_ORDER.replace("gen.", "_RNG.")),
        rules={"rng-provenance"}),
    row("unseeded-generator-passed-down-in-runner", EXPERIMENTS,
        (F5_RNG, F5_RNG.replace("default_rng(seed)", "default_rng()")),
        rules={"rng-provenance"}),
    row("unseeded-isinstance-fallback-in-greedy", GREEDY,
        (GREEDY_GEN, GREEDY_GEN.replace("default_rng(rng)",
                                        "default_rng()")),
        rules={"rng-provenance"}),
    row("runner-loses-keyword-only-seed", EXPERIMENTS,
        ("def run_f5_layerings(*, seed=5,", "def run_f5_layerings(seed=5,"),
        rules={"runner-signature"}),

    # -- forked workers ------------------------------------------------
    row("module-state-write-in-lab-worker", EXECUTOR,
        ("    spec = task.spec\n\n",
         "    spec = task.spec\n    sys.path.insert(0, str(outfile.parent))\n\n"),
        rules={"fork-safety"}),
    row("inherited-event-loop-in-batch-worker", SERVE_POOL,
        ("    from .runner import solve_graph\n\n",
         "    from .runner import solve_graph\n\n"
         "    asyncio.get_event_loop()\n"),
        rules={"fork-safety"}),
    row("worker-without-signal-reset", WORKERS,
        ("    reset_inherited_signals()\n    target(*args)\n",
         "    target(*args)\n"),
        test="tests/core/test_workers.py::"
             "test_child_is_born_with_inherited_signals_blocked"),
    row("worker-started-by-raw-process", EXECUTOR,
        ("    proc = start(_child_main, task, outfile, errfile)\n",
         "    proc = mp.get_context('fork').Process(\n"
         "        target=_child_main, args=(task, outfile, errfile),\n"
         "        daemon=True)\n"
         "    proc.start()\n"),
        test="tests/core/test_workers.py::"
             "test_only_core_workers_starts_processes"),

    # -- the event loop ------------------------------------------------
    # probes and data calls share nothing but the idle stack; one
    # asyncio.Lock per shard makes a probe wait behind hung data calls
    row("probes-share-the-data-executor", ROUTER,
        ("        self._stopped = False\n",
         "        self._stopped = False\n"
         "        self._locks = {sid: asyncio.Lock() for sid in self.shards}\n"),
        ("            status, headers, raw = await with_deadline(\n"
         "                self._exchange(sid, request), budget)\n",
         "            async with self._locks[sid]:\n"
         "                status, headers, raw = await with_deadline(\n"
         "                    self._exchange(sid, request), budget)\n"),
        test="tests/mesh/test_hedge_cleanup.py::TestProbeIsolation::"
             "test_probe_returns_while_data_calls_hang"),
    row("hedge-loser-not-cancelled", ROUTER,
        ("        self._abandon(loser)\n", ""),
        test="tests/mesh/test_hedge_cleanup.py::TestHedgeCleanup::"
             "test_loser_is_cancelled_when_winner_returns"),
    row("threading-lock-on-the-hedge-path", ROUTER,
        ("import json\nimport time\n",
         "import json\nimport threading\nimport time\n"),
        ("        self._lat: deque[float] = deque(maxlen=_LATENCY_WINDOW)\n",
         "        self._lat: deque[float] = deque(maxlen=_LATENCY_WINDOW)\n"
         "        self._lat_lock = threading.Lock()\n"),
        ("        window = sorted(self._lat)\n",
         "        with self._lat_lock:\n"
         "            window = sorted(self._lat)\n"),
        rules={"async-blocking"}),
    row("sleep-in-batcher", JOBS,
        (BATCHER_GET, BATCHER_GET + "            time.sleep(0)\n"),
        rules={"async-blocking"}),
    row("journal-open-loses-its-pragma", "src/repro/lab/journal.py",
        (JOURNAL_OPEN + JOURNAL_PRAGMA, JOURNAL_OPEN),
        rules={"async-blocking"}),
    row("unbounded-await-in-stop", JOBS,
        ("await with_deadline(asyncio.shield(t), 5.0)",
         "await asyncio.shield(t)"),
        rules={"serve-timeout"}),
    row("fire-and-forget-task-in-batcher", JOBS,
        (BATCHER_GET,
         BATCHER_GET + "            loop.create_task(asyncio.sleep(0))\n"),
        rules={"task-lifecycle"}),

    # -- shared memory and handles -------------------------------------
    row("open-without-with-in-peak-rss", WORKERS,
        ('        with open("/proc/self/status") as fh:\n'
         "            for line in fh:\n"
         '                if line.startswith("VmHWM:"):\n'
         "                    return int(line.split()[1]) * 1024\n",
         '        fh = open("/proc/self/status")\n'
         "        for line in fh:\n"
         '            if line.startswith("VmHWM:"):\n'
         "                return int(line.split()[1]) * 1024\n"),
        rules={"resource-safety"}),
    # the sub-round descent's level arrays are not a tracked resource
    row("coarsen-level-not-released", "src/repro/partitioners/subround.py",
        ("        rep = np.array(cluster)\n    finally:\n"
         "        level.release()\n",
         "        rep = np.array(cluster)\n    finally:\n        pass\n"),
        test="tests/partitioners/test_subround.py::TestCoarsenStep::"
             "test_pooled_level_unlinks_its_segments"),

    # -- numerics ------------------------------------------------------
    row("int32-codes-in-pin-count-matrix", KERNELS,
        ("    codes = edge_ids_from_ptr(ptr) * k + labels[pins]\n",
         "    codes = (edge_ids_from_ptr(ptr) * k"
         " + labels[pins]).astype(np.int32)\n"),
        rules={"dtype-bounds"}),
    row("chunked-int32-accumulation-in-pin-count-matrix", KERNELS,
        ("    return (np.bincount(codes, minlength=m * k)\n"
         "            .reshape(m, k).astype(np.int32))\n",
         "    out = np.zeros(m * k, dtype=np.int32)\n"
         "    for lo in range(0, codes.size, 1 << 20):\n"
         "        out += np.bincount(codes[lo:lo + (1 << 20)],"
         " minlength=m * k)\n"
         "    return out.reshape(m, k)\n"),
        rules={"dtype-bounds"}),
    # dtype-bounds proves annotated functions only
    row("int32-codes-in-unannotated-adjacency", KERNELS,
        ("    codes = np.sort(owners[mask] * np.int64(n) + cand[mask])\n",
         "    codes = np.sort(owners[mask] * np.int64(n)"
         " + cand[mask]).astype(np.int32)\n"),
        test=None),
    row("raw-equality-on-a-gain", "src/repro/partitioners/fm.py",
        ("            remove_gain = float(ew[pc[:, a] == 1].sum())\n",
         "            remove_gain = float(ew[pc[:, a] == 1].sum())\n"
         "            if remove_gain == 0.0 and not feasible.any():\n"
         "                return None\n"),
        rules={"float-cost-eq"}),
    # the heap FM keeps each node's target for the move count it was
    # scanned at; a pop that reuses one from before the last move reads
    # stale rows and part weights, which no rule can see
    row("heap-fm-pop-reuses-a-stale-target", "src/repro/partitioners/fm.py",
        ("            if scanned[v] != moved:\n",
         "            if scanned[v] < 0:\n"),
        test="tests/partitioners/test_heuristics.py::TestMultilevel::"
             "test_vcycle_matches_reference_fm"),

    # -- structure -----------------------------------------------------
    row("swallowed-parse-error", "src/repro/io/hmetis.py",
        ("        except ValueError:\n"
         "            raise InvalidHypergraphError(\n"
         '                f"line {no}: {what} {tok!r} is not an integer")'
         " from None\n",
         "        except Exception:\n            return 0\n"),
        rules={"silent-except"}),
    row("broadened-handler-in-peak-rss", WORKERS,
        ("    except (OSError, ValueError, IndexError):\n        pass\n",
         "    except Exception:\n        pass\n"),
        rules={"silent-except"}),
    row("error-outside-the-hierarchy", "src/repro/errors.py",
        ("class BalanceViolationError(ReproError):",
         "class BalanceViolationError(ValueError):"),
        rules={"error-hierarchy"}),
    row("kernel-oracle-renamed", KERNELS,
        ("def _reference_gather_rows(", "def _reference_gather_rows_v1("),
        rules={"kernel-oracle"}),
    row("helper-made-a-public-kernel", KERNELS,
        ("def _pin_count_budget() -> int:", "def pin_count_budget() -> int:"),
        ("budget_bytes = _pin_count_budget()",
         "budget_bytes = pin_count_budget()"),
        rules={"kernel-oracle"}),

    # -- pragmas -------------------------------------------------------
    row("pragma-loses-its-reason", WORKERS,
        ("except Exception:  # analyze: allow(silent-except) — load-bearing"
         " crash isolation: stopping an already-closed worker must not"
         " take down the caller",
         "except Exception:  # analyze: allow(silent-except)"),
        rules={"pragma-missing-reason"}),
    row("pragma-outlives-its-finding", "src/repro/lab/journal.py",
        (JOURNAL_OPEN, '        self._fh = self.path.open("a")'),
        rules={"unused-pragma"}),
]


@pytest.fixture(scope="module")
def mutant_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutants")
    for tree in TREES:
        shutil.copytree(ROOT / tree, root / tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
    paths = [root / tree for tree in TREES]
    cache = root / ".analyze-cache"
    base = run_analysis(paths, incremental=True, cache_dir=cache)
    return root, paths, cache, {f.render() for f in base.findings}


def _mutate(text: str, r: Row) -> str:
    for old, new in r.edits:
        assert text.count(old) == 1, (
            f"{r.id}: expected one match in {r.path}, found "
            f"{text.count(old)}: {old!r}")
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("r", ROWS, ids=[r.id for r in ROWS])
def test_mutation_is_reported_by_its_rules(mutant_tree, r):
    root, paths, cache, base = mutant_tree
    target = root / r.path
    original = target.read_text()
    target.write_text(_mutate(original, r))
    try:
        report = run_analysis(paths, incremental=True, cache_dir=cache)
    finally:
        target.write_text(original)
    rendered = [f.render() for f in report.findings if f.render() not in base]
    assert len(set(rendered)) == len(rendered), "a finding reported twice"
    new = {f.rule for f in report.findings if f.render() not in base}
    assert new == r.rules
    if r.test is not None:
        assert not r.rules
        path, _, name = r.test.partition("::")
        assert f"def {name.rpartition('::')[2]}(" in (ROOT / path).read_text()


def test_every_rule_is_covered():
    covered = set().union(*(r.rules for r in ROWS))
    assert covered == set(RULE_META)
