#!/usr/bin/env bash
# Single CI entry point, in order: the static analysis gate (repro
# analyze), mypy and ruff when installed, the tier-1 tests (in dev
# mode, with leaked files, sockets and pipes as errors), the lab, serve,
# scale, sim and mesh smoke tiers, and (optionally) the perf-regression
# gates.
#
# Usage:
#   scripts/ci_checks.sh            # everything but the perf gates
#   scripts/ci_checks.sh --bench    # also run the benchcheck marker
#
# Environment:
#   REPRO_BENCH_TOLERANCE   fractional slowdown allowed by the perf
#                           gate (default 0.25); see
#                           scripts/check_bench_regression.py
#   JOBS                    worker processes for the smoke run
#                           (default 4)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
JOBS="${JOBS:-4}"
run_bench=0
for arg in "$@"; do
    case "$arg" in
        --bench) run_bench=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "== static analysis (repro analyze) =="
python -m repro analyze --incremental --fail-on=error src tests benchmarks

if command -v mypy >/dev/null 2>&1; then
    echo
    echo "== mypy (config in pyproject.toml) =="
    mypy src/repro
else
    echo "-- mypy not installed; skipping (config lives in pyproject.toml)"
fi

if command -v ruff >/dev/null 2>&1; then
    echo
    echo "== ruff (config in pyproject.toml) =="
    ruff check src tests benchmarks
else
    echo "-- ruff not installed; skipping (config lives in pyproject.toml)"
fi

echo
echo "== tier-1 test suite (dev mode, resource warnings are errors) =="
# A ResourceWarning is mostly raised in a finalizer, where pytest can
# only report it as an unraisable-exception warning; the second filter
# makes that warning fail the test.  It goes to pytest's own -W because
# the interpreter's -W cannot import pytest at startup.
python -X dev -W error::ResourceWarning -m pytest \
    -W error::pytest.PytestUnraisableExceptionWarning -x -q

echo
echo "== lab smoke tier (repro lab run --smoke) =="
python -m repro lab run --smoke -j "$JOBS" -q --out-dir .lab

echo
echo "== serve smoke tier (repro serve --self-check) =="
serve_cache="$(mktemp -d)"
trap 'rm -rf "$serve_cache"' EXIT
python -m repro serve --self-check --cache-dir "$serve_cache"

echo
echo "== scale smoke tier (10^5-pin V-cycle, 60 s budget) =="
timeout 60 python benchmarks/bench_scale.py --smoke

echo
echo "== sim smoke tier (scheduler-zoo matrix + jobs-invariance, 60 s budget) =="
timeout 60 python benchmarks/bench_sim.py --smoke

echo
echo "== mesh smoke tier (2 shards, 200 jobs, one SIGKILL, 60 s budget) =="
timeout 60 python benchmarks/bench_mesh.py --smoke -q

if [ "$run_bench" = 1 ]; then
    echo
    echo "== perf-regression gates (benchcheck: kernels + serve + scale + sim + mesh) =="
    python -m pytest -m benchcheck -q
fi

echo
echo "ci_checks: all green"
