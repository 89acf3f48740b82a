#!/usr/bin/env bash
# check_scalar_oracle.sh — keep sim.ScalarSession a test oracle. The
# estimators run the compiled sim.Session; the interpreted ScalarSession
# exists so tests can compare against it. This fails when Go code in a
# non-test file outside internal/sim names ScalarSession (comments may
# mention it).
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(grep -rnw --include='*.go' --exclude='*_test.go' 'ScalarSession' -- *.go internal cmd examples bench |
  grep -v '^internal/sim/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code uses the test oracle sim.ScalarSession:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "check_scalar_oracle: only tests and internal/sim use ScalarSession"
