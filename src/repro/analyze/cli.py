"""``repro analyze`` — run the whole-program analysis from the CLI.

Exit status: 0 when no finding is at or above ``--fail-on``, 1
otherwise.
"""

from __future__ import annotations

import json

from .engine import run_analysis, severity_at_least

__all__ = ["add_analyze_parser", "analyze_main"]

_DEFAULT_PATHS = ("src", "tests", "benchmarks")


def add_analyze_parser(sub) -> None:
    p = sub.add_parser(
        "analyze",
        help="whole-program static analysis: file-local rules, "
             "call-graph dataflow passes (determinism, fork-safety, "
             "rng-provenance), path-sensitive passes, incremental cache")
    p.add_argument("paths", nargs="*", default=list(_DEFAULT_PATHS),
                   help="files or directories to analyze "
                        f"(default: {' '.join(_DEFAULT_PATHS)})")
    p.add_argument("--format", choices=("text", "json"),
                   default="text", dest="fmt",
                   help="output format (default: text)")
    p.add_argument("--incremental", action="store_true",
                   help="reuse per-module summaries from the "
                        "content-addressed .analyze-cache/")
    p.add_argument("--cache-dir", default=None,
                   help="summary cache location (default: .analyze-cache)")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="parse/summarise modules across N worker "
                        "processes (findings are byte-identical to "
                        "serial; default: 1)")
    p.add_argument("--fail-on", choices=("warning", "error"),
                   default="warning", dest="fail_on",
                   help="lowest severity of a finding that fails the "
                        "run (default: warning)")


def analyze_main(args) -> int:
    report = run_analysis(args.paths, incremental=args.incremental,
                          cache_dir=args.cache_dir,
                          jobs=max(1, args.jobs))
    findings = report.findings

    if args.fmt == "json":
        print(json.dumps({
            "findings": [f.to_json() for f in findings],
            "files": report.files,
            "reused": report.reused,
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        n = len(findings)
        print(f"repro analyze: {n} finding{'s' if n != 1 else ''}")

    return 1 if any(severity_at_least(f.severity, args.fail_on)
                    for f in findings) else 0
