"""The traced benchmark's wrapped names still exist in ``src/``.

``perfbench/tracing.py`` times the layers of a V-cycle by wrapping the
functions named in its ``TARGETS`` table.  When every target of a span
kind is gone, the per-layer metrics that need that kind print ``null``
and the traced run's result cannot be read.  This test reads the table
from the benchmark file (it never imports or changes it), resolves every
entry against the program the way ``tracing.install`` does, and requires
each span kind to keep at least one live target.  A change that retires
a wrapped name together with the benchmark updates this test with it.
"""

from __future__ import annotations

import ast
import importlib
from collections import defaultdict
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> tuple:
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


def _resolves(module: str, path: str) -> bool:
    """A module attribute, a class ``__dict__`` entry or a dict key."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if "[" in path:
        name, key = path[:-1].split("[")
        table = getattr(owner, name, None)
        return isinstance(table, dict) and key in table
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if isinstance(owner, type):
        return attr in owner.__dict__
    return hasattr(owner, attr)


def test_every_span_kind_keeps_a_live_target():
    targets = _targets()
    assert targets, "TARGETS is empty"
    live = defaultdict(list)
    dead = []
    for kind, module, path in targets:
        if _resolves(module, path):
            live[kind].append(path)
        else:
            dead.append(f"{module}.{path}")
    lost = sorted({kind for kind, _, _ in targets} - set(live))
    assert not lost, (
        f"span kinds with no live target (their metrics print null): "
        f"{lost}; missing names: {dead}")

