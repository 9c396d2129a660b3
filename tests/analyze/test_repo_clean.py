"""Tier-1 gate: the committed tree is analyze-clean.

Stricter than the CI gate (``repro analyze --fail-on=error``): no
finding of any severity is tolerated.  If this test fails, either fix
the violation or add a ``# analyze: allow(<rule>) — <reason>`` pragma
with a written reason.
"""

from __future__ import annotations

from pathlib import Path

from repro.analyze import analyze_paths

ROOT = Path(__file__).resolve().parents[2]


def test_repo_has_no_findings():
    findings = analyze_paths([ROOT / "src", ROOT / "tests",
                              ROOT / "benchmarks"])
    assert not findings, "\n" + "\n".join(f.render() for f in findings)
