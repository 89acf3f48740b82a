#!/usr/bin/env bash
# check_scalar_oracle.sh — keep the interpreted sessions and the scalar
# power engines test oracles. The estimators run the compiled
# sim.Session and sim.CompiledSession, which take a delay table (nil
# for zero-delay) and build the lane engine that observes their
# general-delay cycles themselves; the interpreted sim.ScalarSession and
# sim.PackedSession, and the scalar engines, exist so tests can compare
# against them. This fails when Go code in a non-test file outside
# internal/sim names ScalarSession or NewScalarSession; when Go code in
# a non-test file other than internal/sim/packed.go names
# PackedSession, NewPackedSession, PackedZeroDelay or
# NewPackedZeroDelay; when Go code in a non-test file outside
# internal/sim calls a CyclePower or Cycle method, so neither the
# estimators nor the peak-power search observes a cycle through
# EventDriven.Cycle or PowerEngine.CyclePower; or when Go code in a
# non-test file outside internal/sim and bench/layers.go calls
# NewEventDriven or NewZeroDelayToggle, so no production code builds a
# scalar engine to hand to a session. bench/layers.go is exempt until
# the benchmark's replay, which still passes an EventDriven to the
# deprecated sim.LaneSession, is deleted. Comments may mention any of
# them.
set -euo pipefail
cd "$(dirname "$0")/.."

# code lists the non-comment lines of non-test Go files matching the
# extended regular expression $1.
code() {
  grep -rnE --include='*.go' --exclude='*_test.go' "$1" -- *.go internal cmd examples bench |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}

status=0
hits=$(code '\b(New)?ScalarSession\b' | grep -v '^internal/sim/' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code uses the test oracle sim.ScalarSession:" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(code '\b(New)?Packed(Session|ZeroDelay)\b' | grep -v '^internal/sim/packed\.go:' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code uses the test oracle sim.PackedSession:" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(code '\.(Cycle|CyclePower)\(' | grep -v '^internal/sim/' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code observes cycles through a scalar engine (EventDriven.Cycle or CyclePower):" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(code '\b(NewEventDriven|NewZeroDelayToggle)\(' | grep -vE '^(internal/sim/|bench/layers\.go:)' || true)
if [ -n "$hits" ]; then
  echo "check_scalar_oracle: production code builds a scalar power engine (NewEventDriven or NewZeroDelayToggle); sessions take a delay table instead:" >&2
  echo "$hits" >&2
  status=1
fi
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
echo "check_scalar_oracle: only tests and internal/sim use ScalarSession, only tests and packed.go PackedSession, only tests and internal/sim call Cycle or CyclePower, and only tests, internal/sim and bench/layers.go build a scalar engine"
