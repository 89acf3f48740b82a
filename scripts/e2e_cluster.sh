#!/usr/bin/env bash
# e2e_cluster.sh — boot a real estimation cluster on loopback and drive
# a batch through it: one dipe-server coordinator + two dipe-worker
# processes, worker self-registration, readiness transition, batch
# submission over the cluster dispatcher, and completion checks: a
# finished job's trace must run from its closed select-interval and
# plan-resolve spans through its shard event and merge rounds ending at
# its result, zero-delay jobs must be cut at word rows
# (64 replications as one range, 130 as three), a worker must
# refuse an oversized /v1/run with 400 and keep serving, and both log
# encodings must hold their record format: worker 2 logs JSON at debug
# level, the server logfmt at info.
#
# With --chaos the script instead runs the fault-tolerance gate on real
# processes: a worker is SIGKILLed mid-batch (jobs must still finish), a
# replacement worker heals the fleet, the server is SIGTERMed mid-job
# and restarted on the same -state-dir — the journaled job must resume
# and finish with a result bit-identical to a clean local-mode run —
# and finally a worker is SIGSTOPped mid-job so its lease expires and
# the observability counters must show the steal.
#
# Both modes also scrape /metrics on the server and every worker and
# assert the exposition parses as Prometheus text with the expected
# families nonzero.
#
# CI runs both modes as end-to-end gates; they need only go, curl and
# python3.
set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS=0
[ "${1:-}" = "--chaos" ] && CHAOS=1

# All three processes bind kernel-assigned ephemeral ports (":0") and
# report the bound address on their first log line ("... listening on
# HOST:PORT"), so any number of e2e runs can share a host — parallel CI
# jobs included — without port collisions.

BIN="$(mktemp -d)"
LOGS="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN"
  for log in "$LOGS"/server*.log; do
    echo "--- $(basename "$log") ---"; cat "$log" || true
  done
  rm -rf "$LOGS"
}
trap cleanup EXIT

# bound_addr LOGFILE: wait for a process to announce its listen address.
bound_addr() {
  local log="$1" addr=""
  for i in $(seq 1 50); do
    addr=$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$log" 2>/dev/null | head -n1)
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.2
  done
  return 1
}

echo "== build"
go build -o "$BIN/dipe-server" ./cmd/dipe-server
go build -o "$BIN/dipe-worker" ./cmd/dipe-worker

STATE="$LOGS/state"
SERVER_FLAGS=(-cluster -heartbeat 500ms)
# Chaos mode adds a short lease deadline so the SIGSTOP segment below
# expires a stalled worker's lease within the test budget.
[ "$CHAOS" = 1 ] && SERVER_FLAGS+=(-state-dir "$STATE" -lease-timeout 2s)

# prom_check NAME...: the exposition on stdin must parse as Prometheus
# text (every line a comment or name{labels} value) and each NAME given
# as an argument must sum to > 0 across its label sets.
prom_check='
import re, sys
fam = {}
for ln in sys.stdin.read().splitlines():
    if not ln.strip():
        continue
    if ln.startswith("#"):
        assert ln.split()[1] in ("HELP", "TYPE"), f"bad comment: {ln!r}"
        continue
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)({[^}]*})? (-?[0-9.eE+-]+|NaN)$", ln)
    assert m, f"unparseable exposition line: {ln!r}"
    fam[m.group(1)] = fam.get(m.group(1), 0.0) + float(m.group(3))
assert fam, "empty exposition"
for want in sys.argv[1:]:
    assert fam.get(want, 0) > 0, f"{want} = {fam.get(want)} (want > 0); have {sorted(fam)}"
print(f"  {len(fam)} series ok" + (": " + ", ".join(sys.argv[1:]) if len(sys.argv) > 1 else ""))
'

echo "== start coordinator (cluster mode, no workers yet)"
"$BIN/dipe-server" -addr "127.0.0.1:0" "${SERVER_FLAGS[@]}" \
  >"$LOGS/server.log" 2>&1 &
SERVER_PID=$!
PIDS+=($SERVER_PID)

SERVER_ADDR=$(bound_addr "$LOGS/server.log") || { echo "server never reported its address"; exit 1; }
BASE="http://${SERVER_ADDR}"

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "server never came up"; exit 1; }

echo "== not ready before any worker registers"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
[ "$code" = 503 ] || { echo "readyz=$code before workers, want 503"; exit 1; }

echo "== start two workers with self-registration"
"$BIN/dipe-worker" -addr "127.0.0.1:0" -register "$BASE" >"$LOGS/w1.log" 2>&1 &
W1_PID=$!
PIDS+=($W1_PID)
"$BIN/dipe-worker" -addr "127.0.0.1:0" -register "$BASE" -log-level debug -log-format json >"$LOGS/w2.log" 2>&1 &
W2_PID=$!
PIDS+=($W2_PID)
W1_ADDR=$(bound_addr "$LOGS/w1.log") || { echo "worker 1 never reported its address"; exit 1; }
W2_ADDR=$(bound_addr "$LOGS/w2.log") || { echo "worker 2 never reported its address"; exit 1; }

echo "== wait for readiness"
for i in $(seq 1 50); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
  [ "$code" = 200 ] && break
  sleep 0.2
done
[ "$code" = 200 ] || { echo "readyz=$code with workers, want 200"; exit 1; }

echo "== both workers visible"
curl -s "$BASE/v1/cluster/workers" | python3 -c '
import json, sys
ws = json.load(sys.stdin)["workers"]
alive = [w for w in ws if w["alive"]]
assert len(ws) == 2, f"{len(ws)} workers registered, want 2"
assert len(alive) == 2, f"{len(alive)} workers alive, want 2"
'

if [ "$CHAOS" = 0 ]; then

echo "== submit a batch over the cluster dispatcher (incl. variance-reduction modes)"
ids=$(curl -sf -X POST "$BASE/v1/batch" -H 'Content-Type: application/json' -d '{
  "jobs": [
    {"circuit":"s27",  "seed":5, "options":{"replications":16}},
    {"circuit":"s298", "seed":9, "options":{"replications":32}},
    {"circuit":"s1494","seed":3, "options":{"replications":64}},
    {"circuit":"s298", "seed":4, "options":{"replications":16,"variance":"antithetic"}},
    {"circuit":"s298", "seed":8, "options":{"replications":16,"variance":"control-variate"}},
    {"circuit":"s298", "seed":6, "options":{"replications":64,"powerMode":"zero-delay"}},
    {"circuit":"s298", "seed":7, "options":{"replications":130,"powerMode":"zero-delay"}}
  ]}' | python3 -c 'import json,sys; print("\n".join(json.load(sys.stdin)["ids"]))')

echo "== wait for completion"
check_job='
import json, sys
jid = sys.argv[1]
v = json.load(sys.stdin)
assert v["state"] == "done", "%s: state %s error %s" % (jid, v["state"], v.get("error", ""))
r = v["result"]
assert r["power"] > 0, "%s: nonpositive power" % jid
assert r["converged"], "%s: did not converge" % jid
want_vr = v["request"]["options"].get("variance", "")
assert r.get("variance", "") == want_vr, "%s: variance %r, want %r" % (jid, r.get("variance"), want_vr)
print("%s: %s%s P=%.4g W n=%d" % (jid, v["request"]["circuit"],
      " [%s]" % want_vr if want_vr else "", r["power"], r["sampleSize"]))
'
for id in $ids; do
  curl -sf "$BASE/v1/jobs/$id/wait?timeout=120s" | python3 -c "$check_job" "$id"
done

echo "== a cluster job's trace: phase 1, shard, then merge rounds ending at the result"
# bench/target.go derives its cluster split from these events; it reads
# the select-interval and plan-resolve spans, which the job manager
# records for either dispatcher, as service.select and service.plan.
first_id=$(echo "$ids" | head -n1)
curl -sf "$BASE/v1/jobs/$first_id" >"$LOGS/job.json"
curl -sf "$BASE/v1/jobs/$first_id/trace" | python3 -c '
import json, sys
spans = json.load(sys.stdin)["spans"]
job = json.load(open(sys.argv[1]))["result"]
names = [s["name"] for s in spans]
merges = [s for s in spans if s["name"] == "merge-round"]
assert "shard" in names and merges, f"trace lacks shard or merge-round events: {names}"
assert names.index("shard") < names.index("merge-round"), f"merge-round before shard: {names}"
shard = spans[names.index("shard")]
for phase in ("select-interval", "plan-resolve"):
    assert phase in names, f"trace lacks a {phase} span: {names}"
    sp = spans[names.index(phase)]
    assert sp.get("endMs") is not None, f"{phase} span never ended: {sp}"
    assert names.index(phase) < names.index("shard") and sp["endMs"] <= shard["tMs"], \
        f"{phase} ends at {sp['endMs']} ms, not before the shard event at {shard['tMs']} ms"
attrs = merges[-1].get("attrs", [])
last = dict(zip(attrs[::2], attrs[1::2]))
for key in ("power", "halfWidth"):
    want = float("%.6g" % job[key])
    assert float(last.get(key, "nan")) == want, f"last merge-round {key}={last.get(key)!r}, result {job[key]!r}"
print("  select-interval + plan-resolve, shard + %d merge rounds; last power=%s halfWidth=%s" % (len(merges), last["power"], last["halfWidth"]))
' "$LOGS/job.json"

echo "== zero-delay jobs are cut at word rows: 64 replications run as 1 range, 130 as 3"
zd_ids=($(echo "$ids" | tail -n2))
for spec in "${zd_ids[0]}:1" "${zd_ids[1]}:3"; do
  curl -sf "$BASE/v1/jobs/${spec%%:*}/trace" | python3 -c '
import json, sys
jid, want = sys.argv[1], sys.argv[2]
shards = [s for s in json.load(sys.stdin)["spans"] if s["name"] == "shard"]
assert shards, f"{jid}: trace lacks a shard event"
attrs = shards[0].get("attrs", [])
got = dict(zip(attrs[::2], attrs[1::2])).get("ranges")
assert got == want, f"{jid}: shard event reports ranges={got}, want {want}"
print(f"  {jid}: {got} range(s)")
' "${spec%%:*}" "${spec##*:}"
done

echo "== a worker answers an oversized /v1/run (2^33 replications) with 400 and keeps serving"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$W1_ADDR/v1/run" -H 'Content-Type: application/json' \
  -d '{"hash":"deadbeef","seed":1,"interval":2,"repLo":0,"repHi":8589934592,"options":{"replications":8589934592}}')
[ "$code" = 400 ] || { echo "oversized /v1/run answered $code, want 400"; exit 1; }
curl -sf "http://$W1_ADDR/healthz" >/dev/null || { echo "worker 1 stopped serving"; exit 1; }

echo "== stats name the cluster dispatcher"
curl -s "$BASE/v1/stats" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert st["dispatcher"] == "cluster", st["dispatcher"]
assert st["pool"]["done"] >= 7, st["pool"]
'

echo "== /metrics scrapes cleanly on the coordinator"
curl -sf "$BASE/metrics" | python3 -c "$prom_check" \
  dipe_core_rounds_total dipe_core_samples_total \
  dipe_cluster_lease_grants_total dipe_cluster_workers_alive \
  dipe_service_jobs_submitted_total dipe_service_jobs_done

echo "== /metrics scrapes cleanly on both workers"
for waddr in "$W1_ADDR" "$W2_ADDR"; do
  curl -sf "http://$waddr/metrics" | python3 -c "$prom_check" \
    dipe_compile_execs_total dipe_worker_streams_served_total \
    dipe_worker_blocks_emitted_total
done

echo "== worker 2 logs JSON records at debug level, the server logfmt lines"
python3 -c '
import json, re, sys
recs = []
for ln in open(sys.argv[1]):
    if ln.startswith("{"):
        rec = json.loads(ln)
        assert all(isinstance(rec.get(k), str) for k in ("ts", "level", "msg")), "record lacks a string ts, level or msg: %r" % ln
        assert rec.get("component") == "worker", "record not tagged component=worker: %r" % ln
        recs.append(rec)
starts = sum(1 for r in recs if r["msg"] == "stream start")
assert starts, "worker 2 logged no stream start among %d JSON records" % len(recs)
line = re.compile(r"ts=\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?Z level=info msg=\"job finished\" component=jobs job=job-\d+ state=done")
done = sum(1 for ln in open(sys.argv[2]) if line.fullmatch(ln.rstrip("\n")))
assert done, "server.log has no logfmt job finished line"
print("  worker 2: %d JSON records, %d stream start; server: %d job finished lines" % (len(recs), starts, done))
' "$LOGS/w2.log" "$LOGS/server.log"

echo "e2e cluster: OK"
exit 0
fi

# ---------------------------------------------------------------------
# --chaos: fault-tolerance gate on real processes.
# ---------------------------------------------------------------------

check_done='
import json, sys
jid = sys.argv[1]
v = json.load(sys.stdin)
assert v["state"] == "done", "%s: state %s error %s" % (jid, v["state"], v.get("error", ""))
r = v["result"]
assert r["power"] > 0, "%s: nonpositive power" % jid
print("%s: %s P=%.4g n=%d" % (jid, v["request"]["circuit"], r["power"], r["sampleSize"]))
'

echo "== chaos 1: SIGKILL a worker mid-batch; jobs must still finish"
ids=$(curl -sf -X POST "$BASE/v1/batch" -H 'Content-Type: application/json' -d '{
  "jobs": [
    {"circuit":"s1494","seed":11,"options":{"relErr":0.03,"replications":64}},
    {"circuit":"s1494","seed":12,"options":{"relErr":0.03,"replications":64}},
    {"circuit":"s1494","seed":13,"options":{"relErr":0.03,"replications":64}}
  ]}' | python3 -c 'import json,sys; print("\n".join(json.load(sys.stdin)["ids"]))')
sleep 0.3
kill -9 "$W1_PID" 2>/dev/null || true
for id in $ids; do
  curl -sf "$BASE/v1/jobs/$id/wait?timeout=120s" | python3 -c "$check_done" "$id"
done

echo "== dead worker detected with failures recorded"
for i in $(seq 1 50); do
  dead=$(curl -s "$BASE/v1/cluster/workers" | python3 -c '
import json, sys
ws = json.load(sys.stdin)["workers"]
print(sum(1 for w in ws if not w["alive"] and w["failures"] > 0))')
  [ "$dead" -ge 1 ] && break
  sleep 0.2
done
[ "$dead" -ge 1 ] || { echo "killed worker never reported dead with failures"; exit 1; }

echo "== replacement worker heals the fleet"
"$BIN/dipe-worker" -addr "127.0.0.1:0" -register "$BASE" >"$LOGS/w3.log" 2>&1 &
W3_PID=$!
PIDS+=($W3_PID)
W3_ADDR=$(bound_addr "$LOGS/w3.log") || { echo "worker 3 never reported its address"; exit 1; }
for i in $(seq 1 50); do
  alive=$(curl -s "$BASE/v1/cluster/workers" | python3 -c '
import json, sys
print(sum(1 for w in json.load(sys.stdin)["workers"] if w["alive"]))')
  [ "$alive" -ge 2 ] && break
  sleep 0.2
done
[ "$alive" -ge 2 ] || { echo "replacement worker never became alive"; exit 1; }
curl -sf -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
  -d '{"circuit":"s298","seed":14,"options":{"replications":32}}' |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])' | while read -r id; do
    curl -sf "$BASE/v1/jobs/$id/wait?timeout=120s" | python3 -c "$check_done" "$id"
  done

echo "== chaos 2: SIGTERM the server mid-job; restart must resume it"
# Budget-bound spec (unreachably tight accuracy): the job cannot finish
# early, so the SIGTERM below always lands mid-run.
resume_req='{"circuit":"s1494","seed":77,"interval":4,"options":{"relErr":0.0001,"confidence":0.9999,"replications":64,"maxSamples":262144}}'
RESUME_ID=$(curl -sf -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' -d "$resume_req" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
for i in $(seq 1 200); do
  running=$(curl -s "$BASE/v1/jobs/$RESUME_ID" | python3 -c '
import json, sys
print(1 if json.load(sys.stdin)["state"] == "running" else 0)')
  [ "$running" = 1 ] && break
  sleep 0.05
done
[ "$running" = 1 ] || { echo "resume job never started running"; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "== restart server on the same address and state dir"
"$BIN/dipe-server" -addr "$SERVER_ADDR" "${SERVER_FLAGS[@]}" \
  >"$LOGS/server2.log" 2>&1 &
SERVER_PID=$!
PIDS+=($SERVER_PID)
for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "restarted server never came up"; exit 1; }
resumed=$(sed -n 's/.*(\([0-9]*\) to resume).*/\1/p' "$LOGS/server2.log" | head -n1)
[ "${resumed:-0}" -ge 1 ] || { echo "restarted server resumed ${resumed:-0} jobs, want >= 1"; exit 1; }

echo "== resumed job finishes (workers re-register within their steady cadence)"
RESUMED_RESULT=$(curl -sf "$BASE/v1/jobs/$RESUME_ID/wait?timeout=120s")
echo "$RESUMED_RESULT" | python3 -c "$check_done" "$RESUME_ID"

echo "== resumed result is bit-identical to a clean local-mode run"
"$BIN/dipe-server" -addr "127.0.0.1:0" >"$LOGS/server-ref.log" 2>&1 &
PIDS+=($!)
REF_ADDR=$(bound_addr "$LOGS/server-ref.log") || { echo "reference server never reported its address"; exit 1; }
REF_ID=$(curl -sf -X POST "http://$REF_ADDR/v1/jobs" -H 'Content-Type: application/json' -d "$resume_req" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -sf "http://$REF_ADDR/v1/jobs/$REF_ID/wait?timeout=120s" |
  python3 -c '
import json, sys
ref = json.load(sys.stdin)["result"]
got = json.loads(sys.argv[1])["result"]
for k in ("power", "sampleSize", "interval", "hiddenCycles", "sampledCycles", "halfWidth"):
    assert got[k] == ref[k], "resumed %s=%r, clean run %r" % (k, got[k], ref[k])
print("resumed == clean: P=%.6g n=%d" % (ref["power"], ref["sampleSize"]))
' "$RESUMED_RESULT"

echo "== chaos 3: SIGSTOP a lease holder; the lease must expire and be stolen"
# The restarted coordinator's worker table refills on the fleet's 15s
# re-announce cadence; the steal needs a thief, so wait for two workers.
for i in $(seq 1 150); do
  alive=$(curl -s "$BASE/v1/cluster/workers" | python3 -c '
import json, sys
print(sum(1 for w in json.load(sys.stdin)["workers"] if w["alive"]))')
  [ "$alive" -ge 2 ] && break
  sleep 0.2
done
[ "$alive" -ge 2 ] || { echo "fleet never re-registered 2 workers"; exit 1; }

# Unreachably tight accuracy again: the job must outlive the stall.
stall_req='{"circuit":"s1494","seed":21,"interval":4,"options":{"relErr":0.0001,"confidence":0.9999,"replications":128,"maxSamples":262144}}'
curl -sf -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' -d "$stall_req" >/dev/null

echo "== find the lease holder"
holder=""
for i in $(seq 1 100); do
  holder=$(curl -s "$BASE/v1/cluster/workers" | python3 -c '
import json, sys
ws = json.load(sys.stdin)["workers"]
held = [w["url"] for w in ws if w["alive"] and w.get("activeLeases", 0) > 0]
print(held[0] if held else "")')
  [ -n "$holder" ] && break
  sleep 0.2
done
[ -n "$holder" ] || { echo "no worker ever held a lease"; exit 1; }
case "$holder" in
  *"$W2_ADDR"*) STALL_PID=$W2_PID ;;
  *"$W3_ADDR"*) STALL_PID=$W3_PID ;;
  *) echo "lease holder $holder is not a known worker"; exit 1 ;;
esac

kill -STOP "$STALL_PID"
echo "== wait for the steal counters (lease timeout 2s)"
sum_steals='
import re, sys
total = 0.0
for ln in sys.stdin:
    m = re.match(r"^dipe_cluster_lease_steals_total(?:\{[^}]*\})? ([0-9.eE+-]+)", ln)
    if m: total += float(m.group(1))
print(int(total))
'
stolen=0
for i in $(seq 1 120); do
  stolen=$(curl -s "$BASE/metrics" | python3 -c "$sum_steals")
  [ "$stolen" -ge 1 ] && break
  sleep 0.5
done
kill -CONT "$STALL_PID" 2>/dev/null || true
[ "$stolen" -ge 1 ] || { echo "stalled worker's lease was never stolen"; exit 1; }

echo "== expiry and steal counters visible on /metrics"
curl -sf "$BASE/metrics" | python3 -c "$prom_check" \
  dipe_cluster_lease_expiries_total dipe_cluster_lease_steals_total \
  dipe_cluster_reassignments_total dipe_core_rounds_total

echo "e2e cluster chaos: OK"
