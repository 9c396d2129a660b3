"""``repro analyze`` end to end: exit status, output formats, cache reuse."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analyze import analyze_paths
from repro.analyze.cli import add_analyze_parser, analyze_main

SEED = ("import numpy as np\n"
        "def f():\n"
        "    return np.random.rand()\n")      # seed-discipline (error)

LEAK = ("def peek(path, default):\n"
        "    fh = open(path)\n"
        "    if default:\n"
        "        return default\n"            # fh leaks on this path
        "    line = fh.readline()\n"
        "    fh.close()\n"
        "    return line\n")                  # resource-safety, with flow

UNUSED = "x = 1  # analyze: allow(silent-except) — nothing here\n"


def plant(root: Path, text: str) -> Path:
    p = root / "src/repro/mod.py"
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
    return root / "src"


def parser() -> argparse.ArgumentParser:
    sub = argparse.ArgumentParser().add_subparsers()
    add_analyze_parser(sub)
    return sub.choices["analyze"]


def parse(*argv) -> argparse.Namespace:
    return parser().parse_args([str(a) for a in argv])


def run_json(capsys, *argv) -> dict:
    analyze_main(parse(*argv, "--format", "json"))
    return json.loads(capsys.readouterr().out)


def test_options():
    flags = {s for a in parser()._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--format", "--incremental",
                     "--cache-dir", "-j", "--jobs", "--fail-on"}


def test_error_finding_fails_run(tmp_path, capsys):
    assert analyze_main(parse(plant(tmp_path, SEED))) == 1
    out = capsys.readouterr().out
    assert "seed-discipline" in out and "1 finding" in out


def test_json_format(tmp_path, capsys):
    src = plant(tmp_path, LEAK)
    data = run_json(capsys, src)
    assert data["files"] == 1
    [f] = data["findings"]
    assert f["rule"] == "resource-safety" and f["severity"] == "error"
    [finding] = analyze_paths([src])
    assert finding.flow
    assert f["flow"] == [list(step) for step in finding.flow]


def test_fail_on_error_passes_a_warning(tmp_path, capsys):
    src = plant(tmp_path, UNUSED)
    assert analyze_main(parse(src)) == 1
    assert "warning: unused-pragma" in capsys.readouterr().out
    assert analyze_main(parse(src, "--fail-on", "error")) == 0


def test_incremental_rerun_reuses_every_summary(tmp_path, capsys):
    src = plant(tmp_path, SEED)
    (src / "repro/other.py").write_text("def g():\n    return 1\n")
    flags = (src, "--incremental", "--cache-dir", tmp_path / "cache")
    first = run_json(capsys, *flags)
    second = run_json(capsys, *flags)
    assert first["reused"] == 0
    assert second["files"] == second["reused"] == 2
    assert second["findings"] == first["findings"]
