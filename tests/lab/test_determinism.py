"""results.json determinism: jobs-invariance and resume-after-kill."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.lab import (
    ExperimentSpec,
    ResultCache,
    execute,
    expand_tasks,
    results_payload,
)

TOYS = "tests.lab._toys"
ROOT = Path(__file__).resolve().parents[2]


def _specs(n=5):
    return [
        ExperimentSpec(name=f"toy-{i}", artifact="none", title=f"toy {i}",
                       module=TOYS, func="run_ok", check="check_ok",
                       header=("seed", "factor", "product"),
                       params={"factor": i + 2}, seeds=(0, 1))
        for i in range(n)
    ]


def _payload_bytes(results) -> str:
    return json.dumps(results_payload(results), sort_keys=True, indent=2)


def test_results_identical_for_any_jobs(tmp_path):
    tasks = expand_tasks(_specs())
    serial = _payload_bytes(execute(tasks, jobs=1))
    parallel = _payload_bytes(execute(tasks, jobs=4))
    assert serial == parallel


def test_cached_and_fresh_results_are_identical(tmp_path):
    tasks = expand_tasks(_specs())
    cache = ResultCache(tmp_path / "c")
    fresh = _payload_bytes(execute(tasks, cache=cache))
    cached = _payload_bytes(execute(tasks, cache=cache))
    assert fresh == cached  # "cached" status normalises to "ok"


def test_partial_cache_resume_is_identical(tmp_path):
    """Losing the parent mid-run loses nothing: a rerun over a partial
    cache (some tasks done, some not) produces the same bytes."""
    tasks = expand_tasks(_specs())
    cache = ResultCache(tmp_path / "c")
    complete = _payload_bytes(execute(tasks, cache=cache))
    # simulate an interrupt: drop half the finished results
    for task in tasks[::2]:
        os.unlink(cache.path(task.key))
    resumed = _payload_bytes(execute(tasks, jobs=3, cache=cache))
    assert resumed == complete


DRIVER = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from repro.lab import ResultCache, execute, expand_tasks, results_payload
from repro.lab.report import write_results
from tests.lab.test_determinism import _specs

tasks = expand_tasks(_specs())
results = execute(tasks, jobs=2, cache=ResultCache({cache!r}))
write_results({out!r}, results_payload(results))
print("COMPLETE")
"""


def _driver_cmd(tmp_path, cache_name, out_name, duration=0.0):
    specs_src = DRIVER.format(src=str(ROOT / "src"), root=str(ROOT),
                              cache=str(tmp_path / cache_name),
                              out=str(tmp_path / out_name))
    script = tmp_path / f"driver_{cache_name}.py"
    script.write_text(specs_src)
    return [sys.executable, str(script)]


def test_kill_midrun_then_resume_matches_clean_run(tmp_path):
    # patch the toy specs to take long enough to interrupt reliably
    clean = subprocess.run(_driver_cmd(tmp_path, "clean", "clean.json"),
                           capture_output=True, text=True)
    assert clean.returncode == 0, clean.stderr

    # start a second run against a fresh cache and SIGKILL it mid-flight
    proc = subprocess.Popen(_driver_cmd(tmp_path, "killed", "killed.json"),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    cache_dir = tmp_path / "killed"
    deadline = time.time() + 30
    while time.time() < deadline:
        done = list(cache_dir.glob("*/*.json"))
        if done:  # at least one worker result landed
            break
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    # resume: the same driver, same cache — completes and matches
    resumed = subprocess.run(_driver_cmd(tmp_path, "killed",
                                         "killed.json"),
                             capture_output=True, text=True)
    assert resumed.returncode == 0, resumed.stderr
    assert "COMPLETE" in resumed.stdout
    assert (tmp_path / "killed.json").read_bytes() == \
        (tmp_path / "clean.json").read_bytes()
