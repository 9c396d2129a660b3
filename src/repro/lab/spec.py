"""Experiment specs and the discoverable registry.

An :class:`ExperimentSpec` is a declarative description of one
EXPERIMENTS.md row: which callable produces the result rows, with which
parameters and seeds, under which timeout, and how to verify the rows
against the paper's claim.  Specs never hold code — they *name* a
module and function, so a spec (and therefore a task) is a plain
value that a forked worker resolves by name.

Runner contract
---------------
``func`` resolves to a callable ``run(*, seed, **params)`` returning
either a bare list of rows (rendered under the spec's ``title`` /
``header``) or a table dict ``{"title", "header", "rows"}`` or a list
of such dicts for multi-table experiments.  ``check`` (optional)
resolves to a callable receiving exactly what the runner returned and
raising ``AssertionError`` when a paper claim does not hold.

Bare module names (no dot) resolve inside the repository's
``benchmarks/`` directory, which is how the legacy ``bench_*.py``
content is wrapped; dotted names resolve as ordinary imports.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .cache import task_key

__all__ = [
    "BENCH_DIR",
    "ExperimentSpec",
    "Task",
    "all_specs",
    "expand_tasks",
    "get_spec",
    "load_builtin_specs",
    "register",
    "resolve_callable",
    "source_path",
]

ROOT = Path(__file__).resolve().parents[3]
BENCH_DIR = ROOT / "benchmarks"

SMOKE = "smoke"      # cheap, deterministic: eligible for ``run --smoke``
TIMING = "timing"    # rows contain wall-clock values (not seed-deterministic)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment (one EXPERIMENTS.md row)."""

    name: str                       # experiment id, e.g. "F1", "T4.1"
    artifact: str                   # paper artifact, e.g. "Figure 1 / App. B"
    title: str                      # table caption
    module: str                     # bench module name or dotted import path
    func: str                       # runner attribute in ``module``
    check: str | None = None        # checker attribute in ``module``
    header: tuple[str, ...] | None = None   # columns for bare-row runners
    params: Mapping[str, Any] = field(default_factory=dict)
    smoke_params: Mapping[str, Any] | None = None
    seeds: tuple[int, ...] = (0,)
    timeout_s: float = 300.0
    retries: int = 1                # extra attempts after a crash
    version: int = 1                # bump to invalidate cached results
    tags: frozenset[str] = frozenset()

    @property
    def smoke(self) -> bool:
        return SMOKE in self.tags

    @property
    def deterministic(self) -> bool:
        return TIMING not in self.tags

    def effective_params(self, smoke: bool = False) -> dict[str, Any]:
        merged = dict(self.params)
        if smoke and self.smoke_params is not None:
            merged.update(self.smoke_params)
        return merged


@dataclass(frozen=True)
class Task:
    """One unit of executor work: a spec instantiated at one seed."""

    spec: ExperimentSpec
    seed: int
    params: Mapping[str, Any]
    key: str                        # content-addressed cache key

    @property
    def label(self) -> str:
        return (f"{self.spec.name}[seed={self.seed}]"
                if len(self.spec.seeds) > 1 else self.spec.name)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ExperimentSpec] = {}
_BUILTINS_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (name must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate experiment spec {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def load_builtin_specs() -> None:
    """Import the built-in spec definitions exactly once."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import experiments  # noqa: F401  (registers on import)


def get_spec(name: str) -> ExperimentSpec:
    load_builtin_specs()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


def all_specs() -> list[ExperimentSpec]:
    load_builtin_specs()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# Module / callable resolution and code fingerprinting
# ---------------------------------------------------------------------------

def _import_module(module: str):
    """Import ``module``; bare names resolve inside ``benchmarks/``."""
    if "." not in module and (BENCH_DIR / f"{module}.py").exists():
        bdir = str(BENCH_DIR)
        if bdir not in sys.path:
            # repro: allow[fork-safety] — the child process extends its
            # own copy of sys.path to import bench modules; the parent's
            # path is never touched after the fork.
            sys.path.insert(0, bdir)
    return importlib.import_module(module)


def resolve_callable(module: str, func: str) -> Callable[..., Any]:
    return getattr(_import_module(module), func)


def source_path(module: str) -> Path | None:
    """Path of the file defining ``module`` (for code fingerprints)."""
    bench = BENCH_DIR / f"{module}.py"
    if "." not in module and bench.exists():
        return bench
    spec = importlib.util.find_spec(module)
    if spec is not None and spec.origin and spec.origin != "built-in":
        return Path(spec.origin)
    return None


# ---------------------------------------------------------------------------
# Task expansion
# ---------------------------------------------------------------------------

def expand_tasks(specs: Sequence[ExperimentSpec], *, smoke: bool = False,
                 timeout_override: float | None = None) -> list[Task]:
    """Expand specs into concrete tasks in a deterministic order.

    The order — specs sorted by name, then seeds in declared order — is
    what makes ``results.json`` byte-identical across ``--jobs`` values
    and across resumed runs.
    """
    tasks: list[Task] = []
    for spec in sorted(specs, key=lambda s: s.name):
        if timeout_override is not None:
            spec = replace(spec, timeout_s=timeout_override)
        params = spec.effective_params(smoke)
        for seed in spec.seeds:
            tasks.append(Task(spec=spec, seed=seed, params=params,
                              key=task_key(spec, params, seed)))
    return tasks
