#!/usr/bin/env bash
# check_layout.sh — keep the replication layout decided in one place.
# core.Ranges cuts every in-process shard and every cluster range; the
# partition helpers under it (SplitRange, and the former
# SplitRangeAligned) are internal/core's own. This fails when Go code in
# a non-test file outside internal/core and bench/ names either helper
# (comments may mention them).
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(grep -rnwE --include='*.go' --exclude='*_test.go' 'SplitRange|SplitRangeAligned' -- *.go internal cmd examples |
  grep -v '^internal/core/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
  echo "check_layout: replication ranges cut outside internal/core (call core.Ranges):" >&2
  echo "$hits" >&2
  exit 1
fi
echo "check_layout: only internal/core cuts replication ranges"
