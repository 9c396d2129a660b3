"""Shared helpers for the benchmark harness."""

from __future__ import annotations

from typing import Any, Sequence

from repro.lab.report import format_table


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[Any]]) -> list[dict]:
    """Print an experiment's result series in a paper-style table.

    Returns the rendered rows as a list of ``{column: value}`` dicts —
    the same formatting path (``repro.lab.report.format_table``) the
    lab reporter uses, so both harnesses render identically.
    """
    text, dict_rows = format_table(title, header, rows)
    print(text)
    return dict_rows


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
