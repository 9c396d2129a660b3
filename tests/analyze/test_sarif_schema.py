"""Emitted SARIF validates against the vendored SARIF 2.1.0 schema.

``sarif-schema-2.1.0.json`` next to this file is a faithful subset of
the official OASIS schema (required fields, enums, and bounds copied
verbatim; ``additionalProperties: false`` as in the original), so a
misspelled property, an out-of-range ``startLine``, or an invalid
``level`` is a validation error — not a structural spot check that
happens to pass.  Documents under test come from real analysis runs,
including codeFlows from the path-sensitive and concurrency passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from repro.analyze import analyze_paths
from repro.analyze.engine import Finding
from repro.analyze.sarif import to_sarif

SCHEMA = json.loads(
    (Path(__file__).parent / "sarif-schema-2.1.0.json").read_text())
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)


def write(root: Path, rel: str, text: str) -> Path:
    p = root / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
    return p


def validate(doc: dict) -> None:
    VALIDATOR.validate(doc)


class TestEmittedDocumentsValidate:
    def test_empty_run_validates(self):
        validate(to_sarif([]))

    def test_plain_findings_validate(self):
        validate(to_sarif([
            Finding(path="src/repro/a.py", line=3,
                    rule="seed-discipline", message="m"),
            Finding(path="x.json", line=1, rule="stale-baseline",
                    message="m", severity="note"),
        ]))

    def test_real_run_with_concurrency_codeflows(self, tmp_path):
        # one finding per new pass family, each carrying a CFG witness
        # flow -> codeFlows/threadFlows must validate too
        write(tmp_path, "src/repro/mod.py",
              "import asyncio\n"
              "async def race(coro, flag):\n"
              "    t = asyncio.create_task(coro)\n"
              "    if flag:\n"
              "        return None\n"
              "    return await t\n")
        write(tmp_path, "src/repro/mesh/mod_lock.py",
              "import threading\n"
              "_LOCK = threading.Lock()\n"
              "async def handle():\n"
              "    with _LOCK:\n"
              "        return 1\n")
        findings = analyze_paths([tmp_path / "src"])
        assert {f.rule for f in findings} >= {
            "task-lifecycle", "async-blocking"}
        assert any(f.flow for f in findings)
        doc = to_sarif(findings)
        assert any("codeFlows" in r for r in doc["runs"][0]["results"])
        validate(doc)

    def test_unknown_rule_still_validates(self):
        validate(to_sarif([
            Finding(path="a.py", line=1, rule="not-a-rule",
                    message="m")]))


class TestSchemaHasTeeth:
    """Corrupted documents must FAIL validation."""

    def doc(self):
        return to_sarif([Finding(
            path="src/repro/a.py", line=3, rule="seed-discipline",
            message="m",
            flow=(("src/repro/a.py", 3, "step"),))])

    def test_misspelled_property_rejected(self):
        doc = self.doc()
        res = doc["runs"][0]["results"][0]
        res["ruleIdx"] = res.pop("ruleIndex")
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)

    def test_bad_level_rejected(self):
        doc = self.doc()
        doc["runs"][0]["results"][0]["level"] = "fatal"
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)

    def test_zero_start_line_rejected(self):
        doc = self.doc()
        loc = doc["runs"][0]["results"][0]["locations"][0]
        loc["physicalLocation"]["region"]["startLine"] = 0
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)

    def test_message_without_text_rejected(self):
        doc = self.doc()
        doc["runs"][0]["results"][0]["message"] = {}
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)

    def test_empty_thread_flow_rejected(self):
        doc = self.doc()
        cf = doc["runs"][0]["results"][0]["codeFlows"][0]
        cf["threadFlows"][0]["locations"] = []
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)

    def test_wrong_version_rejected(self):
        doc = self.doc()
        doc["version"] = "2.0.0"
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)
