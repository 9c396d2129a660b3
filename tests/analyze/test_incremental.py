"""Incremental engine: cache reuse, invalidation and parallel extraction.

The contract under test: an ``--incremental`` run reports **the same
findings as a cold run** (same objects, same order, same rendered
bytes) — only where stage-1 summaries come from differs.
"""

from __future__ import annotations

from pathlib import Path

from repro.analyze.cache import SummaryCache
from repro.analyze.engine import run_analysis
from repro.analyze.index import extract_summary, load_source

FILES = {
    "src/repro/alpha.py": (
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.rand()\n"),          # seed-discipline
    "src/repro/beta.py": (
        "import random\n"
        "def g():\n"
        "    return random.random()\n"),           # seed-discipline
    "src/repro/gamma.py": (
        "from repro.alpha import f\n"
        "def h():\n"
        "    return f()\n"),                       # clean importer
}


def build(root: Path, files=FILES) -> Path:
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return root / "src"


def rendered(report):
    return [f.render() for f in report.findings]


class TestCacheReuse:
    def test_warm_run_is_byte_identical_to_cold(self, tmp_path):
        src = build(tmp_path)
        cache = tmp_path / "cache"
        cold = run_analysis([src])
        first = run_analysis([src], incremental=True, cache_dir=cache)
        second = run_analysis([src], incremental=True, cache_dir=cache)
        assert first.extracted == 3 and first.reused == 0
        assert second.extracted == 0 and second.reused == 3
        assert rendered(cold) == rendered(first) == rendered(second)
        assert rendered(cold)  # the fixture does plant findings

    def test_only_changed_file_reextracted(self, tmp_path):
        src = build(tmp_path)
        cache = tmp_path / "cache"
        run_analysis([src], incremental=True, cache_dir=cache)
        (tmp_path / "src/repro/alpha.py").write_text(
            "def f():\n    return 0\n")
        report = run_analysis([src], incremental=True, cache_dir=cache)
        assert report.extracted == 1 and report.reused == 2
        assert all("alpha" not in line for line in rendered(report))

    def test_corrupt_entries_degrade_to_cold(self, tmp_path):
        src = build(tmp_path)
        cache = tmp_path / "cache"
        baseline = run_analysis([src], incremental=True, cache_dir=cache)
        for entry in cache.rglob("*.json"):
            entry.write_text("{ not json")
        report = run_analysis([src], incremental=True, cache_dir=cache)
        assert report.reused == 0 and report.extracted == 3
        assert rendered(report) == rendered(baseline)

    def test_readonly_cache_dir_degrades_to_cold(self, tmp_path):
        src = build(tmp_path)
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o500)
        try:
            report = run_analysis([src], incremental=True, cache_dir=cache)
        finally:
            cache.chmod(0o700)
        assert report.extracted == 3
        assert rendered(report) == rendered(run_analysis([src]))

    def test_witness_flow_survives_the_cache(self, tmp_path):
        # path findings (with their CFG witness flows) are serialized
        # into the summary; a warm run must replay them byte-identically
        (tmp_path / "src/repro").mkdir(parents=True)
        (tmp_path / "src/repro/leak.py").write_text(
            "from repro.core.shm import SharedArrays\n"
            "def leak(arrays, work):\n"
            "    sa = SharedArrays.create(arrays)\n"
            "    work()\n"
            "    sa.close()\n")
        cache = tmp_path / "cache"
        cold = run_analysis([tmp_path / "src"])
        run_analysis([tmp_path / "src"], incremental=True,
                     cache_dir=cache)
        warm = run_analysis([tmp_path / "src"], incremental=True,
                            cache_dir=cache)
        assert warm.reused == 1 and warm.extracted == 0
        assert [f.to_json() for f in cold.findings] \
            == [f.to_json() for f in warm.findings]
        assert warm.findings[0].flow        # the witness is non-empty

    def test_version_skew_reads_as_miss(self, tmp_path):
        p = build(tmp_path) / "repro/alpha.py"
        raw = p.read_bytes()
        cache = SummaryCache(tmp_path / "cache")
        summary = extract_summary(load_source(p))
        cache.put(p.as_posix(), raw, summary)
        hit = cache.get(p.as_posix(), raw)
        assert hit is not None and hit.module == summary.module
        entry = next((tmp_path / "cache").rglob("*.json"))
        entry.write_text(entry.read_text().replace(
            "analyze-v", "analyze-vOLD-"))
        assert cache.get(p.as_posix(), raw) is None
        # Different bytes are a different key entirely.
        assert cache.get(p.as_posix(), raw + b"\n# x\n") is None


class TestParallelExtraction:
    def test_jobs_findings_are_byte_identical_to_serial(self, tmp_path):
        src = build(tmp_path)
        serial = run_analysis([src])
        parallel = run_analysis([src], jobs=4)
        assert [f.to_json() for f in serial.findings] \
            == [f.to_json() for f in parallel.findings]
        assert rendered(serial) == rendered(parallel)
        assert parallel.extracted == 3

    def test_jobs_fill_the_cache_like_serial(self, tmp_path):
        src = build(tmp_path)
        cache = tmp_path / "cache"
        first = run_analysis([src], incremental=True, cache_dir=cache,
                             jobs=4)
        second = run_analysis([src], incremental=True, cache_dir=cache)
        assert first.extracted == 3
        assert second.reused == 3 and second.extracted == 0
        assert rendered(first) == rendered(second)

    def test_single_job_is_the_serial_path(self, tmp_path):
        src = build(tmp_path)
        assert rendered(run_analysis([src], jobs=1)) \
            == rendered(run_analysis([src]))
