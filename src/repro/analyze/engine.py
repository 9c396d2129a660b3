"""Core of the ``repro analyze`` whole-program analysis platform.

The engine orchestrates a three-stage pipeline:

1. **extract** — each ``.py`` file is parsed once (stdlib :mod:`ast`,
   no third-party dependency) and boiled down to a
   :class:`~repro.analyze.index.ModuleSummary`: symbols, import
   aliases, resolved call targets, global-mutation / RNG facts, pragma
   table, and the findings of the *file-local* rules
   (:mod:`repro.analyze.rules`), which all ride the same single AST
   walk.
2. **link** — summaries are joined into a
   :class:`~repro.analyze.index.ModuleIndex` and a
   :class:`~repro.analyze.callgraph.CallGraph`; ``repro.*`` imports,
   ``from x import y as z`` aliases, ``__init__``-re-exports and
   registry dispatch (lab spec registrations, ``Process(target=...)``
   worker entrypoints) all resolve here.
3. **check** — the structural repo rules (kernel-oracle parity, runner
   signatures, error hierarchy) and the interprocedural dataflow
   passes (determinism, fork-safety, rng-provenance) run over the
   linked program and emit :class:`Finding` objects.

Both cold and ``--incremental`` runs execute *exactly* this pipeline —
incrementality only changes where stage 1 summaries come from (the
content-addressed ``.analyze-cache/`` instead of a fresh parse), which
is why the two modes report byte-identical findings.

Findings can be suppressed per line with a *pragma comment* that must
carry a written reason; both historical spellings are recognised::

    except Exception:  # analyze: allow(silent-except) — why this is OK
    except Exception:  # repro: allow[silent-except] — why this is OK

A pragma without a reason is itself a finding
(``pragma-missing-reason``), and a pragma that suppresses nothing is
flagged as ``unused-pragma`` so stale exemptions cannot accumulate —
including pragmas left behind when a refactor moves the code a
dataflow pass used to flag.  A pragma on a comment-only line applies
to the next source line.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

__all__ = [
    "Finding",
    "SourceFile",
    "PragmaTable",
    "AnalysisReport",
    "analyze_paths",
    "collect_files",
    "run_analysis",
    "severity_at_least",
]

#: Matches ``analyze: allow(<id>)`` / ``repro: allow[<id>]`` after a
#: hash; the separator before the reason may be an em/en dash, ``--``,
#: ``-`` or ``:``.
PRAGMA_RES = (
    re.compile(r"#\s*analyze:\s*allow\(([a-z0-9-]+)\)"
               r"(?:\s*(?:—|–|--|-|:)\s*(?P<reason>.*))?\s*$"),
    re.compile(r"#\s*repro:\s*allow\[([a-z0-9-]+)\]"
               r"(?:\s*(?:—|–|--|-|:)\s*(?P<reason>.*))?\s*$"),
)

#: Severity ranking used by ``--fail-on`` (higher = more severe).
_SEVERITY_RANK = {"warning": 0, "error": 1}


def severity_at_least(severity: str, threshold: str) -> bool:
    """True when ``severity`` is at or above the ``--fail-on`` bar."""
    return _SEVERITY_RANK.get(severity, 1) >= _SEVERITY_RANK.get(threshold, 1)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Path-sensitive findings additionally carry ``flow`` — the CFG
    witness path as ``(path, line, note)`` steps from the fact that
    introduces the bad state to the point where it becomes an error.
    The text rendering stays one line (the message embeds a compact
    witness); JSON output prints ``flow`` step by step.
    """

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"
    flow: tuple = ()

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.severity}: "
                f"{self.rule}: {self.message}")

    def to_json(self) -> dict:
        out = {"path": self.path, "line": self.line, "rule": self.rule,
               "severity": self.severity, "message": self.message}
        if self.flow:
            out["flow"] = [[p, ln, note] for (p, ln, note) in self.flow]
        return out


@dataclass
class _Pragma:
    line: int              # line the pragma comment sits on
    rule: str
    reason: str            # "" when the author forgot the reason
    targets: tuple[int, ...]  # source lines this pragma covers
    used: bool = False


class PragmaTable:
    """Per-file table of ``allow(...)`` / ``allow[...]`` suppressions.

    Pragmas are read from real comment tokens (via :mod:`tokenize`), so
    pragma-shaped text inside string literals or docstrings is ignored.
    """

    def __init__(self, text: str | None) -> None:
        self.pragmas: list[_Pragma] = []
        if text is None:        # deserialised table: rows added manually
            return
        lines = text.splitlines()
        try:
            tokens = list(tokenize.generate_tokens(
                iter(text.splitlines(keepends=True)).__next__))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = None
            for rx in PRAGMA_RES:
                m = rx.search(tok.string)
                if m is not None:
                    break
            if m is None:
                continue
            row, col = tok.start
            targets = [row]
            if lines[row - 1][:col].strip() == "":
                # A comment-only pragma covers the first source line
                # after its comment block (a multi-line reason is one
                # pragma, not one per line).
                nxt = row + 1
                while (nxt <= len(lines)
                       and lines[nxt - 1].strip().startswith("#")):
                    nxt += 1
                targets.append(nxt)
            self.pragmas.append(
                _Pragma(line=row, rule=m.group(1),
                        reason=(m.group("reason") or "").strip(),
                        targets=tuple(targets)))

    def suppresses(self, rule: str, line: int) -> bool:
        hit = False
        for p in self.pragmas:
            if p.rule == rule and line in p.targets:
                p.used = True
                hit = True
        return hit

    def engine_findings(self, path: str) -> list[Finding]:
        out = []
        for p in self.pragmas:
            if not p.reason:
                out.append(Finding(
                    path=path, line=p.line, rule="pragma-missing-reason",
                    message=f"allow({p.rule}) pragma must carry a written "
                            "reason after a dash"))
            elif not p.used:
                out.append(Finding(
                    path=path, line=p.line, rule="unused-pragma",
                    message=f"allow({p.rule}) pragma suppresses nothing "
                            "on this line; remove it"))
        return out

    def to_json(self) -> list:
        return [[p.line, p.rule, p.reason, list(p.targets)]
                for p in self.pragmas]

    @classmethod
    def from_json(cls, rows: list) -> "PragmaTable":
        table = cls(None)
        for line, rule, reason, targets in rows:
            table.pragmas.append(_Pragma(
                line=int(line), rule=rule, reason=reason,
                targets=tuple(int(t) for t in targets)))
        return table


@dataclass
class SourceFile:
    """A parsed module plus the metadata rules key off."""

    path: Path
    text: str
    tree: ast.Module
    pragmas: PragmaTable

    @property
    def posix(self) -> str:
        return self.path.as_posix()

    @property
    def in_src(self) -> bool:
        return "src" in self.path.parts

    @property
    def in_tests(self) -> bool:
        return "tests" in self.path.parts


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(f for f in p.rglob("*.py")
                       if "__pycache__" not in f.parts)
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


@dataclass
class AnalysisReport:
    """Findings plus the run metadata the CLI and benchmarks report."""

    findings: list[Finding]
    files: int = 0
    reused: int = 0            # summaries served from .analyze-cache/
    extracted: int = 0         # summaries rebuilt by parsing


def run_analysis(
    paths: Sequence[str | Path],
    *,
    incremental: bool = False,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> AnalysisReport:
    """Run the full pipeline over ``paths``.

    ``incremental`` reuses per-module summaries from ``cache_dir``
    (default ``.analyze-cache/``) keyed by content hash, re-extracting
    only modules whose bytes changed; the link and check stages always
    run whole-program over the summaries, so a change in module B is
    re-judged against *every* module that imports it — the reverse
    dependency closure — without re-parsing those importers.

    ``jobs > 1`` fans stage-1 extraction out over a process pool.
    Parallelism only changes who parses: cache-miss modules are
    summarised in workers and merged back in file order, and the link
    and check stages run in the parent over the ordered summaries, so
    findings are byte-identical to a serial run for any ``jobs``.
    """
    from . import passes as _passes
    from .cache import SummaryCache
    from .index import ModuleIndex

    files = collect_files(paths)
    cache = (SummaryCache(cache_dir) if incremental else None)

    slots: list = []
    pending: list[tuple[int, Path, bytes]] = []
    reused = 0
    for path in files:
        raw = _read_bytes(path)
        if raw is None:
            continue
        summary = None
        if cache is not None:
            summary = cache.get(path.as_posix(), raw)
        if summary is not None:
            reused += 1
        else:
            pending.append((len(slots), path, raw))
        slots.append(summary)
    extracted = 0
    if pending:
        fresh = _extract_many([(p, raw) for (_i, p, raw) in pending], jobs)
        for (idx, path, raw), summary in zip(pending, fresh):
            if summary is None:
                continue
            extracted += 1
            if cache is not None:
                cache.put(path.as_posix(), raw, summary)
            slots[idx] = summary
    summaries = [s for s in slots if s is not None]

    index = ModuleIndex(summaries)
    raw_findings = list(_passes.run_all(index))

    # Pragma suppression — one table per path, then engine findings
    # (missing reason / unused) from the same tables.
    tables = {s.path: s.pragma_table() for s in summaries}
    findings = []
    for f in raw_findings:
        table = tables.get(f.path)
        if table is not None and table.suppresses(f.rule, f.line):
            continue
        findings.append(f)
    for s in summaries:
        findings.extend(tables[s.path].engine_findings(s.path))

    meta = _passes.RULE_META
    findings = sorted(
        replace(f, severity=meta.get(f.rule, ("error",))[0])
        for f in findings)

    return AnalysisReport(findings=findings, files=len(summaries),
                          reused=reused, extracted=extracted)


def _read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _extract_worker(path: Path, raw: bytes) -> dict | None:
    """Stage-1 worker: bytes in, summary JSON dict out."""
    from .index import extract_summary, load_source

    sf = load_source(path, raw)
    if sf is None:
        return None
    return extract_summary(sf).to_json()


def _extract_many(items: list[tuple[Path, bytes]], jobs: int) -> list:
    """Summaries for ``items`` in order, over ``jobs`` forked workers.

    Every summary, serial or not, goes through the JSON form the cache
    uses, so the output does not depend on ``jobs``.
    """
    from ..core.workers import fork_map
    from .index import ModuleSummary

    return [None if d is None else ModuleSummary.from_json(d)
            for d in fork_map(_extract_worker, items, jobs)]


def analyze_paths(paths: Sequence[str | Path]) -> list[Finding]:
    """Run all rules and passes over ``paths``; unsuppressed findings.

    Compatibility entry point: one cold, whole-program run of
    :func:`run_analysis`.
    """
    return run_analysis(paths).findings
