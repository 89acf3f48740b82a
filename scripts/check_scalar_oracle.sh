#!/usr/bin/env bash
# check_scalar_oracle.sh — keep the interpreted sessions test oracles.
# The estimators run the compiled sim.Session and sim.CompiledSession;
# the interpreted sim.ScalarSession and sim.PackedSession exist so tests
# can compare against them. This fails when Go code in a non-test file
# outside internal/sim names ScalarSession, or when Go code in a
# non-test file other than internal/sim/packed.go names PackedSession,
# NewPackedSession, PackedZeroDelay or NewPackedZeroDelay (comments may
# mention either).
set -euo pipefail
cd "$(dirname "$0")/.."

# code lists the non-comment lines of non-test Go files matching the
# extended regular expression $1 as a whole word.
code() {
  grep -rnwE --include='*.go' --exclude='*_test.go' "$1" -- *.go internal cmd examples bench |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}

status=0
hits=$(code 'ScalarSession' | grep -v '^internal/sim/' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code uses the test oracle sim.ScalarSession:" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(code '(New)?Packed(Session|ZeroDelay)' | grep -v '^internal/sim/packed\.go:' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code uses the test oracle sim.PackedSession:" >&2
  echo "$hits" >&2
  status=1
fi
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
echo "check_scalar_oracle: only tests and internal/sim use ScalarSession, only tests and packed.go PackedSession"
