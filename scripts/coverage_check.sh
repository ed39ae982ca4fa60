#!/usr/bin/env bash
# Tier-1 line-coverage gate for src/repro.
#
#   scripts/coverage_check.sh            # run tier-1 under coverage, enforce the floor
#   COVERAGE_FLOOR=90 scripts/coverage_check.sh   # override the floor
#
# Runs the tier-1 selection (bench/slow excluded) under coverage.py when it is
# installed (the CI "coverage" job installs it via requirements-dev.txt), and
# under the vendored stdlib tracer scripts/linecov.py otherwise, then fails if
# total line coverage over src/repro drops below the pinned floor.
#
# The floor is measured-and-pinned: the vendored tracer reported 88.74% over
# src/repro on this selection when the gate landed, and the pin sits one
# point below per the usual current-minus-1pt policy.  coverage.py reads the
# same tree slightly HIGHER than linecov (it honours `pragma: no cover`
# exclusions; linecov counts every co_lines() line), so the floor holds under
# either tool; if they ever diverge past the slack, trust coverage.py and
# re-pin.
#
# Raise the floor when coverage improves; never lower it to admit a regression
# without a recorded reason here.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

FLOOR="${COVERAGE_FLOOR:-87.7}"
PYTEST_ARGS=(-q -m "not bench and not slow")

if python -c "import coverage" >/dev/null 2>&1; then
  echo "==> coverage.py: tier-1 under coverage (floor ${FLOOR}%)"
  python -m coverage run --source=src/repro -m pytest "${PYTEST_ARGS[@]}"
  python -m coverage report --fail-under="$FLOOR" | tail -n 12
else
  echo "==> coverage.py not installed; vendored fallback tracer (floor ${FLOOR}%)"
  python scripts/linecov.py --include src/repro --floor "$FLOOR" -- "${PYTEST_ARGS[@]}"
fi

echo "==> coverage gate OK (floor ${FLOOR}%)"
