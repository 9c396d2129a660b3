"""Static analysis + opt-in runtime sanitizers for the repro codebase.

Two halves, one goal — keeping the invariants the reproduction rests on
machine-checked instead of tribal:

* the ``repro analyze`` whole-program analysis platform:

  - :mod:`repro.analyze.engine` — three-stage pipeline (extract /
    link / check) shared by cold and ``--incremental`` runs;
  - :mod:`repro.analyze.index` — per-module summaries and the symbol
    index (import aliasing, ``__init__`` re-exports);
  - :mod:`repro.analyze.callgraph` / :mod:`repro.analyze.dataflow` —
    the project call graph and deterministic reachability used by the
    interprocedural passes;
  - :mod:`repro.analyze.rules` — file-local rules (seed discipline,
    silent excepts, float tolerance, serve timeouts);
  - :mod:`repro.analyze.cfg` / :mod:`repro.analyze.absint` —
    per-function CFGs and the abstract interpreter the path-sensitive
    passes solve over;
  - :mod:`repro.analyze.passes` — structural repo rules, the
    path-sensitive passes (one obligation pass for resource-safety and
    task-lifecycle, dtype-bounds) and the determinism / fork-safety /
    rng-provenance / async-blocking dataflow passes;
  - :mod:`repro.analyze.cache` — the ``--incremental`` summary cache;
  - :mod:`repro.analyze.cli` — the ``repro analyze`` verb (text or
    JSON output, ``--fail-on`` exit status).

* :mod:`repro.analyze.sanitize` — runtime checks (CSR well-formedness,
  partition validity, balance, hyperDAG certificates) injected at
  kernel/partitioner boundaries; zero-overhead no-ops unless
  ``REPRO_SANITIZE=1``.

See ``docs/ANALYZE.md`` for the full rule/pass reference.
"""

from .engine import (AnalysisReport, Finding, analyze_paths, collect_files,
                     run_analysis)

__all__ = ["AnalysisReport", "Finding", "analyze_paths", "collect_files",
           "run_analysis"]
