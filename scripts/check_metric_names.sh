#!/usr/bin/env bash
# check_metric_names.sh — lint the observability naming convention over
# every instrument registered on the obs registry outside internal/obs
# itself (whose tests use a reserved dipe_test_* subsystem):
#
#   dipe_<subsystem>_<name>    subsystem ∈ core | compile | cluster |
#                                          power | service | worker
#   counters end in _total; gauges and histograms never do.
#
# Names assembled from a literal prefix plus a runtime suffix (e.g.
# "dipe_service_jobs_"+state) are checked on the prefix, which the
# trailing-underscore exemption below recognises.
set -euo pipefail
cd "$(dirname "$0")/.."

matches=$(grep -rnoE '\.(Counter|Gauge|Histogram)(Vec|Func)?\("[^"]*"' \
  --include='*.go' --exclude='*_test.go' internal cmd examples 2>/dev/null |
  grep -v '^internal/obs/' || true)

echo "$matches" | awk -F'"' '
NF < 2 { next }
{
  n++
  name = $2
  split($1, loc, ":")
  where = loc[1] ":" loc[2]
  iscounter = ($1 ~ /\.Counter(Vec|Func)?\($/)
  if (name !~ /^dipe_(core|compile|cluster|power|service|worker)_[a-z][a-z0-9_]*$/) {
    print where ": metric " name " does not match dipe_<subsystem>_<name>"
    bad = 1
  } else if (iscounter && name !~ /_total$/ && name !~ /_$/) {
    print where ": counter " name " must end in _total"
    bad = 1
  } else if (!iscounter && name ~ /_total$/) {
    print where ": non-counter " name " must not end in _total"
    bad = 1
  }
}
END {
  if (n == 0) { print "check_metric_names: no registrations found (grep pattern stale?)"; exit 1 }
  printf "check_metric_names: %d metric names OK\n", n
  exit bad
}'
