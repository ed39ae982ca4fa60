#!/usr/bin/env bash
# Mirror the CI matrix locally, no make required.
#
#   scripts/ci_check.sh          # lint + tier-1 tests + coverage + compile/smoke
#   scripts/ci_check.sh --fast   # skip the model smoke and the coverage gate
#
# Mirrors .github/workflows/ci.yml job for job: the lint job (ruff, hard-error
# + docstring rules from ruff.toml), the tier-1 test job (bench/slow excluded;
# CI runs it on 3.10 and 3.12 — locally you get whichever python is first on
# PATH), the coverage job (tier-1 rerun under coverage.py or the vendored
# scripts/linecov.py tracer, pinned floor — see scripts/coverage_check.sh),
# the docs job (fenced code blocks in README.md/docs/*.md), and the compile +
# model smoke job.  The scheduled paper-table workflow
# (.github/workflows/bench.yml) is NOT mirrored here; run
# `pytest -m bench benchmarks` for that, and perfbench/run.py for speed.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
if [ "${1:-}" = "--fast" ]; then
  fast=1
fi

step() { printf '\n==> %s\n' "$1"; }

step "lint: ruff check (hard-error rules)"
if command -v ruff >/dev/null 2>&1; then
  ruff check src tests benchmarks scripts examples
elif python -m ruff --version >/dev/null 2>&1; then
  python -m ruff check src tests benchmarks scripts examples
else
  echo "ruff not installed — skipping lint locally (CI still runs it;"
  echo "install with: python -m pip install -r requirements-dev.txt)"
fi

step "tier-1 tests on $(python --version 2>&1) (CI matrix: 3.10 + 3.12)"
python -m pytest -x -q -m "not bench and not slow"

if [ "$fast" -eq 0 ]; then
  step "tier-1 tests under the fast kernel backend (REPRO_BACKEND=fast)"
  REPRO_BACKEND=fast python -m pytest -x -q -m "not bench and not slow"
fi

step "docs: fenced code blocks compile, doctests run"
python scripts/check_docs.py

step "byte-compile every module"
python -m compileall -q src tests benchmarks scripts examples

if [ "$fast" -eq 1 ]; then
  step "ci_check OK (--fast: fast-backend leg, coverage gate and model smoke skipped)"
  exit 0
fi

step "coverage gate (tier-1 rerun under coverage, pinned floor)"
bash scripts/coverage_check.sh

step "end-to-end model smoke"
python scripts/smoke_model.py

step "ci_check OK"
