#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of `grca serve`:
#   1. generate a simulated corpus
#   2. start the service sharded (-shards=4 by default), load the corpus
#      over HTTP, finalize
#   3. stream normalized events with grca-load over BOTH ingest
#      encodings (JSON and the binary wire format), recording each
#      throughput and the /v1/breakdown latency at a small and a ~10x
#      larger store (the rollup keeps it flat; the ratio is gated), then
#      print /v1/stats' per-shard event counts and fail if one shard
#      holds more than 60% of them
#   4. exercise the Result Browser: breakdown, trend, drilldown, and one
#      SSE diagnosis event, failing on non-200 or empty aggregates
#   5. diagnose, SIGTERM, restart (timed), and assert the event count,
#      the diagnosis bytes, and the breakdown bytes survived the restart
#   6. replication: restart the primary, attach a live read replica
#      (-replica-of), stream 100k more events while the replica applies
#      them and grca-load reads from it (-read-from), record catch-up
#      time and replica read latencies, byte-compare /v1/breakdown
#      between the two nodes, then SIGKILL the primary, `grca promote`
#      the replica, byte-compare its breakdown against the pre-kill
#      snapshot, and assert the promoted node accepts writes
#   7. repeat the binary stream against a fresh -shards=1 data dir and
#      gate the sharded/single speedup (>= SERVE_SMOKE_MIN_SHARD_RATIO,
#      only when the box has >= 4 cores — shards can't beat one commit
#      lane without cores to run on) and the absolute events/s floor
#      (SERVE_SMOKE_MIN_EPS); `go run ./bench` is the measurement, so
#      nothing here compares against a committed number
#
# Usage: scripts/serve_smoke.sh [out.json]
#   out.json  where to write the throughput report (default BENCH_SERVE.json)
set -euo pipefail

OUT="${1:-BENCH_SERVE.json}"
ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
ADDR2="127.0.0.1:18081"
BASE2="http://$ADDR2"
WORK="$(mktemp -d)"
SERVE_PID=""
REPLICA_PID=""
MIN_EPS="${SERVE_SMOKE_MIN_EPS:-20000}"
# The rollup answers /v1/breakdown from pre-computed counters, so p99
# must stay roughly flat as the store grows ~10x. The gate is lenient
# (sub-ms latencies are noisy on shared CI boxes).
MAX_P99_RATIO="${SERVE_SMOKE_MAX_P99_RATIO:-1.5}"
# Shard count for the main run, and the binary-ingest speedup the sharded
# run must show over a single-shard run of the same stream. The ratio is
# gated only on boxes with >= 4 cores; the measured value is always
# recorded in the report alongside `cores`/`gomaxprocs` so a reader can
# judge a 1-core CI number for what it is.
SHARDS="${SERVE_SMOKE_SHARDS:-4}"
MIN_SHARD_RATIO="${SERVE_SMOKE_MIN_SHARD_RATIO:-1.8}"
CORES=$(nproc)
GOMAXPROCS_EFF="${GOMAXPROCS:-$CORES}"

cleanup() {
  for pid in "$SERVE_PID" "$REPLICA_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_phase() { # wait_phase <phase> — poll /healthz until the phase matches
  want="$1"
  for _ in $(seq 1 400); do
    got=$(curl -fsS "$BASE/healthz" 2>/dev/null | python3 -c 'import json,sys; print(json.load(sys.stdin)["phase"])' 2>/dev/null || true)
    [ "$got" = "$want" ] && return 0
    sleep 0.05
  done
  echo "serve_smoke: timed out waiting for phase $want" >&2
  exit 1
}

# Run the built binary directly: `go run` would receive the SIGTERM
# itself and die without forwarding it to the server.
start_serve() { # start_serve [datadir] [shards]
  "$WORK/bin/grca" serve -addr "$ADDR" -data-dir "${1:-$WORK/data}" -bundle "$WORK/corpus" \
    -fsync batch -shards "${2:-$SHARDS}" &
  SERVE_PID=$!
}

stop_serve() { # graceful SIGTERM drain
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  SERVE_PID=""
}

echo "== building binaries + generating corpus"
go build ./...
go build -o "$WORK/bin/" ./cmd/grca ./cmd/grca-load ./cmd/grca-sim
"$WORK/bin/grca-sim" -out "$WORK/corpus" -seed 7 -pops 3 -pers 2 -sessions 6 -days 2 -bgp 80 -cdn 40 -pim 0

echo "== starting serve"
start_serve
wait_phase loading

PROBE="/v1/breakdown?app=bgpflap"
echo "== loading feeds + streaming 10k events (small-store breakdown probe)"
"$WORK/bin/grca-load" -addr "$BASE" -bundle "$WORK/corpus" -events 10000 -batch 1000 -c 4 \
  -probe "$PROBE" -probes 300 -o "$WORK/load-small.json"
wait_phase serving

echo "== streaming 90k more events over JSON ingest"
"$WORK/bin/grca-load" -addr "$BASE" -events 90000 -batch 1000 -c 4 \
  -wire json -o "$WORK/load-json.json"

echo "== streaming 90k more events over binary wire ingest (large-store breakdown probe)"
"$WORK/bin/grca-load" -addr "$BASE" -events 90000 -batch 1000 -c 4 \
  -wire binary -probe "$PROBE" -probes 300 -o "$WORK/load-binary.json"

echo "== per-shard placement after the -shards=$SHARDS streams"
curl -fsS "$BASE/v1/stats" | python3 -c '
import json, sys
per = json.load(sys.stdin)["pipeline"]["shard_events"]
share = max(per) / max(sum(per), 1)
print(f"   shard_events: {per} (largest share {share:.0%})")
if len(per) > 1 and share > 0.6:
    sys.exit(f"serve_smoke: FAIL — one of {len(per)} shards holds {share:.0%} of the events (> 60%)")
' || exit 1

echo "== exercising the Result Browser endpoints"
browse() { # browse <path> <python-expr over parsed json r> <label>
  local body
  body=$(curl -fsS "$BASE$1") || { echo "serve_smoke: FAIL — GET $1" >&2; exit 1; }
  echo "$body" | python3 -c "import json,sys; r=json.load(sys.stdin); assert $2, '$3: '+json.dumps(r)[:200]" \
    || { echo "serve_smoke: FAIL — $3 ($1)" >&2; exit 1; }
}
browse "/v1/breakdown?app=bgpflap" 'r["total"] > 0 and len(r["rows"]) > 0' "empty breakdown"
browse "/v1/trend?name=eBGP%20flap&bin=1h" 'sum(p["count"] for p in r["points"]) > 0' "empty trend"
browse "/v1/causes?app=bgpflap" 'len(r["causes"]) > 0' "empty causes"
SYM_ID=$(curl -fsS -X POST "$BASE/v1/diagnose" -d '{"app":"bgpflap","all":true}' \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["diagnoses"][0]["symptom"]["id"])')
browse "/v1/drilldown/$SYM_ID" 'r["diagnosis"]["label"] and r["trace"]' "empty drilldown"

# One SSE event: the ring holds live streaming diagnoses only (the 100k
# interface-up events stream none), so trigger one — a symptom plus a
# tick event that advances the stream clock past its grace window — then
# read it back with a replay catch-up.
NOW_END=$(curl -fsS "$BASE/v1/events" | python3 -c 'import json,sys; print(json.load(sys.stdin)["span"]["last"])')
python3 - "$NOW_END" > "$WORK/sse-batch.json" <<'PYEOF'
import json, sys, datetime
last = datetime.datetime.fromisoformat(sys.argv[1].replace("Z", "+00:00"))
at = last + datetime.timedelta(hours=1)
iso = lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")
print(json.dumps({"events": [
  {"name": "eBGP flap", "start": iso(at), "end": iso(at + datetime.timedelta(minutes=1)),
   "loc": {"type": "router:neighbor", "a": "pop00-per1", "b": "10.99.0.1"}},
  {"name": "synthetic tick", "start": iso(at + datetime.timedelta(hours=48)),
   "end": iso(at + datetime.timedelta(hours=48)), "loc": {"type": "router", "a": "pop00-per1"}},
]}))
PYEOF
curl -fsS -X POST "$BASE/v1/ingest" --data-binary @"$WORK/sse-batch.json" > /dev/null
# --max-time bounds the open-ended stream; curl's timeout complaint
# after the frame arrived is expected noise.
SSE_LINE=$(curl -fsS -N --max-time 10 "$BASE/v1/stream?replay=5" 2>/dev/null | grep -m1 '^data: ' || true)
if [ -z "$SSE_LINE" ]; then
  echo "serve_smoke: FAIL — no SSE diagnosis event on /v1/stream" >&2
  exit 1
fi
echo "${SSE_LINE#data: }" | python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["seq"] >= 1 and r["app"], r' \
  || { echo "serve_smoke: FAIL — malformed SSE diagnosis frame" >&2; exit 1; }
echo "   SSE diagnosis received: $(echo "${SSE_LINE#data: }" | python3 -c 'import json,sys; r=json.load(sys.stdin); print("seq", r["seq"], r["app"], r["label"])')"

curl -fsS "$BASE/v1/breakdown?app=bgpflap" > "$WORK/breakdown-before.json"
EVENTS_BEFORE=$(curl -fsS "$BASE/v1/events" | python3 -c 'import json,sys; print(json.load(sys.stdin)["events"])')
curl -fsS -X POST "$BASE/v1/diagnose" -d '{"app":"bgpflap","all":true}' > "$WORK/diag-before.json"
echo "   $EVENTS_BEFORE events stored; $(python3 -c 'import json;print(len(json.load(open("'"$WORK"'/diag-before.json"))["diagnoses"]))') bgpflap diagnoses"

echo "== SIGTERM + restart (timed)"
stop_serve
RESTART_T0=$(date +%s.%N)
start_serve
wait_phase serving
RESTART_T1=$(date +%s.%N)
RESTART_SECONDS=$(python3 -c "print(round($RESTART_T1 - $RESTART_T0, 3))")

EVENTS_AFTER=$(curl -fsS "$BASE/v1/events" | python3 -c 'import json,sys; print(json.load(sys.stdin)["events"])')
curl -fsS -X POST "$BASE/v1/diagnose" -d '{"app":"bgpflap","all":true}' > "$WORK/diag-after.json"

if [ "$EVENTS_BEFORE" != "$EVENTS_AFTER" ]; then
  echo "serve_smoke: FAIL — event count $EVENTS_BEFORE before restart, $EVENTS_AFTER after" >&2
  exit 1
fi
if ! cmp -s "$WORK/diag-before.json" "$WORK/diag-after.json"; then
  echo "serve_smoke: FAIL — diagnosis output changed across restart" >&2
  exit 1
fi
curl -fsS "$BASE/v1/breakdown?app=bgpflap" > "$WORK/breakdown-after.json"
if ! cmp -s "$WORK/breakdown-before.json" "$WORK/breakdown-after.json"; then
  echo "serve_smoke: FAIL — /v1/breakdown changed across restart (rollup rebuild not deterministic)" >&2
  diff "$WORK/breakdown-before.json" "$WORK/breakdown-after.json" >&2 || true
  exit 1
fi
echo "== restart preserved $EVENTS_AFTER events, identical diagnoses and breakdown"

# ---- replication: live read replica, catch-up, SIGKILL failover ----
# The primary from the restart phase is still serving; attach a replica
# to it. (A replica is bound to one primary incarnation: it ships that
# boot's journals/WALs and must resync if the primary restarts.)
echo "== attaching a live read replica (-replica-of)"
"$WORK/bin/grca" serve -addr "$ADDR2" -data-dir "$WORK/data-replica" -bundle "$WORK/corpus" \
  -fsync batch -shards "$SHARDS" -replica-of "$BASE" -replica-poll 5ms &
REPLICA_PID=$!
for _ in $(seq 1 400); do
  curl -fsS "$BASE2/healthz" > /dev/null 2>&1 && break
  sleep 0.05
done

echo "== streaming 100k more events at the primary while the replica applies and serves reads"
"$WORK/bin/grca-load" -addr "$BASE" -events 100000 -batch 1000 -c 4 \
  -wire binary -read-from "$BASE2" -probes 100 -o "$WORK/load-replica.json"

# Catch-up: the stream is quiesced; poll until the replica's event count
# matches the primary's, then require the breakdown bytes to match too.
# (Breakdown equality alone is too weak a signal — bgpflap's rows can be
# identical while the replica still trails on undiagnosed raw events.)
CATCH_T0=$(date +%s.%N)
EVENTS_PRIMARY=$(curl -fsS "$BASE/v1/events" | python3 -c 'import json,sys; print(json.load(sys.stdin)["events"])')
curl -fsS "$BASE/v1/breakdown?app=bgpflap" > "$WORK/breakdown-primary.json"
EVENTS_REPLICA=-1
for _ in $(seq 1 1200); do
  EVENTS_REPLICA=$(curl -fsS "$BASE2/v1/events" 2>/dev/null | python3 -c 'import json,sys; print(json.load(sys.stdin)["events"])' 2>/dev/null || echo -1)
  [ "$EVENTS_REPLICA" = "$EVENTS_PRIMARY" ] && break
  sleep 0.05
done
CATCH_T1=$(date +%s.%N)
if [ "$EVENTS_REPLICA" != "$EVENTS_PRIMARY" ]; then
  echo "serve_smoke: FAIL — replica stores $EVENTS_REPLICA events, primary $EVENTS_PRIMARY" >&2
  curl -fsS "$BASE2/v1/replication/status" >&2 || true
  echo >&2
  curl -fsS "$BASE/v1/replication/status" >&2 || true
  echo >&2
  exit 1
fi
CATCHUP_SECONDS=$(python3 -c "print(round($CATCH_T1 - $CATCH_T0, 3))")
curl -fsS "$BASE2/v1/breakdown?app=bgpflap" > "$WORK/breakdown-replica.json"
if ! cmp -s "$WORK/breakdown-primary.json" "$WORK/breakdown-replica.json"; then
  echo "serve_smoke: FAIL — caught-up replica's breakdown differs from the primary" >&2
  diff "$WORK/breakdown-primary.json" "$WORK/breakdown-replica.json" >&2 || true
  exit 1
fi
# Lag gauges (post-catch-up they sit at/near zero; presence is the check)
# and replication status from both sides.
curl -fsS "$BASE2/v1/stats" | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]["gauges"]
lag = {k: v for k, v in m.items() if k.startswith("replica.follower.")}
assert lag, "no replica.follower.* gauges in replica stats"
print("   replica gauges:", json.dumps(lag))
' || { echo "serve_smoke: FAIL — replica lag gauges missing from /v1/stats" >&2; exit 1; }
curl -fsS "$BASE2/v1/replication/status" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["role"] == "replica" and r.get("shard_lag"), r
' || { echo "serve_smoke: FAIL — bad replica /v1/replication/status" >&2; exit 1; }
echo "   replica caught up in ${CATCHUP_SECONDS}s ($EVENTS_REPLICA events, breakdown byte-identical)"

echo "== SIGKILL primary, promote the replica"
curl -fsS "$BASE/v1/breakdown?app=bgpflap" > "$WORK/breakdown-prekill.json"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
PROMOTE_T0=$(date +%s.%N)
"$WORK/bin/grca" promote -addr "$BASE2"
PROMOTE_T1=$(date +%s.%N)
PROMOTE_SECONDS=$(python3 -c "print(round($PROMOTE_T1 - $PROMOTE_T0, 3))")
curl -fsS "$BASE2/v1/breakdown?app=bgpflap" > "$WORK/breakdown-promoted.json"
if ! cmp -s "$WORK/breakdown-prekill.json" "$WORK/breakdown-promoted.json"; then
  echo "serve_smoke: FAIL — promoted replica's breakdown differs from the pre-kill primary" >&2
  diff "$WORK/breakdown-prekill.json" "$WORK/breakdown-promoted.json" >&2 || true
  exit 1
fi
# The promoted node is a writable primary.
curl -fsS -X POST "$BASE2/v1/ingest" --data-binary @"$WORK/sse-batch.json" > /dev/null \
  || { echo "serve_smoke: FAIL — promoted node rejected a write" >&2; exit 1; }
curl -fsS "$BASE2/v1/replication/status" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["role"] == "primary", r
' || { echo "serve_smoke: FAIL — promoted node still reports replica role" >&2; exit 1; }
echo "   promoted in ${PROMOTE_SECONDS}s; breakdown byte-identical to pre-kill primary; writes accepted"
kill -TERM "$REPLICA_PID" && wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
python3 - "$WORK/replication.json" "$CATCHUP_SECONDS" "$PROMOTE_SECONDS" "$WORK/load-replica.json" <<'PYEOF'
import json, sys
out, catchup, promote, load_path = sys.argv[1:5]
load = json.load(open(load_path))
rep = {
    "replica_catchup_seconds": float(catchup),
    "promote_seconds": float(promote),
    "replica_reads": load.get("replica_reads"),
    "replica_read_p50_ms": load.get("replica_read_p50_ms"),
    "replica_read_p99_ms": load.get("replica_read_p99_ms"),
    "replica_probe_p50_ms": load.get("replica_probe_p50_ms"),
    "replica_probe_p99_ms": load.get("replica_probe_p99_ms"),
    "events_per_sec_with_replica": load.get("events_per_sec"),
}
json.dump(rep, open(out, "w"), indent=2)
PYEOF

# Shard-scaling comparison: replay the same binary stream against a fresh
# single-shard data dir (shard count is pinned per data dir, so a second
# dir is required). The warmup load mirrors the main run's small-store
# phase so both binary measurements start from a comparable store.
echo "== single-shard comparison run (-shards=1, fresh data dir)"
start_serve "$WORK/data-shard1" 1
wait_phase loading
"$WORK/bin/grca-load" -addr "$BASE" -bundle "$WORK/corpus" -events 10000 -batch 1000 -c 4 \
  -o "$WORK/load-shard1-warm.json"
wait_phase serving
"$WORK/bin/grca-load" -addr "$BASE" -events 90000 -batch 1000 -c 4 \
  -wire binary -o "$WORK/load-shard1.json"
stop_serve

# Merge the load runs into one report (the sharded binary run is the
# headline; its probe run saw the largest store), gate the breakdown
# growth ratio, the absolute events/s floor, and the sharded/single-shard
# speedup (>= 4 cores only).
python3 - "$OUT" "$WORK/load-small.json" "$WORK/load-json.json" "$WORK/load-binary.json" \
  "$WORK/load-shard1.json" "$MAX_P99_RATIO" "$MIN_EPS" \
  "$RESTART_SECONDS" "$EVENTS_AFTER" "$SHARDS" "$CORES" "$GOMAXPROCS_EFF" "$MIN_SHARD_RATIO" <<'PYEOF'
import json, sys
(out, small_path, json_path, bin_path, shard1_path,
 max_ratio, min_eps, restart_s, restart_events,
 shards, cores, gomaxprocs, min_shard_ratio) = sys.argv[1:14]
max_ratio, min_eps = float(max_ratio), int(min_eps)
shards, cores, gomaxprocs = int(shards), int(cores), int(gomaxprocs)
min_shard_ratio = float(min_shard_ratio)
small = json.load(open(small_path))
jrep = json.load(open(json_path))
brep = json.load(open(bin_path))
s1rep = json.load(open(shard1_path))

rep = dict(brep)  # headline = sharded binary wire run (carried the large-store probe)
rep["shards"] = shards
rep["cores"] = cores
rep["gomaxprocs"] = gomaxprocs
rep["events_per_sec_binary"] = brep["events_per_sec"]
rep["events_per_sec_json"] = jrep["events_per_sec"]
rep["events_per_sec"] = brep["events_per_sec"]
rep["restart_seconds"] = float(restart_s)
rep["restart_events"] = int(restart_events)
rep["breakdown_p99_ms_small_store"] = small["probe_p99_ms"]
rep["breakdown_p99_ms_large_store"] = rep.pop("probe_p99_ms")
rep["breakdown_p50_ms_large_store"] = rep.pop("probe_p50_ms")
ratio = rep["breakdown_p99_ms_large_store"] / max(rep["breakdown_p99_ms_small_store"], 1e-9)
rep["breakdown_p99_growth_ratio"] = round(ratio, 3)
# Both shard rows, verbatim, so the speedup can be re-derived.
speedup = brep["events_per_sec"] / max(s1rep["events_per_sec"], 1e-9)
rep["shard_speedup_binary"] = round(speedup, 2)
rep["runs"] = [
    {"shards": 1, "wire": "binary", "events_per_sec": s1rep["events_per_sec"],
     "ingest_p50_ms": s1rep.get("ingest_p50_ms"), "ingest_p99_ms": s1rep.get("ingest_p99_ms")},
    {"shards": shards, "wire": "binary", "events_per_sec": brep["events_per_sec"],
     "ingest_p50_ms": brep.get("ingest_p50_ms"), "ingest_p99_ms": brep.get("ingest_p99_ms")},
]
json.dump(rep, open(out, "w"), indent=2)
open(out, "a").write("\n")

print(f"   ingest: {rep['events_per_sec_json']:.0f} events/s JSON, "
      f"{rep['events_per_sec_binary']:.0f} events/s binary "
      f"({rep['events_per_sec_binary']/max(rep['events_per_sec_json'],1e-9):.2f}x)")
print(f"   scaling: {s1rep['events_per_sec']:.0f} events/s at shards=1 -> "
      f"{brep['events_per_sec']:.0f} events/s at shards={shards} "
      f"({speedup:.2f}x on {cores} cores)")
print(f"   restart: {rep['restart_events']} events recovered in {rep['restart_seconds']:.2f}s")
print(f"   breakdown p99: {rep['breakdown_p99_ms_small_store']:.2f}ms small -> "
      f"{rep['breakdown_p99_ms_large_store']:.2f}ms large (ratio {ratio:.2f})")

failed = False
if ratio > max_ratio:
    print(f"serve_smoke: FAIL — breakdown p99 grew {ratio:.2f}x (> {max_ratio}x) with a ~10x larger store",
          file=sys.stderr)
    failed = True
if cores >= 4 and shards >= 4:
    if speedup < min_shard_ratio:
        print(f"serve_smoke: FAIL — shards={shards} binary ingest only {speedup:.2f}x the "
              f"single-shard rate (< {min_shard_ratio}x on {cores} cores)", file=sys.stderr)
        failed = True
else:
    print(f"   (shard speedup gate skipped: {cores} cores / {shards} shards; need >= 4 of each)")
for mode in ("json", "binary"):
    if rep[f"events_per_sec_{mode}"] < min_eps:
        print(f"serve_smoke: FAIL — {mode} ingest {rep[f'events_per_sec_{mode}']:.0f} events/s "
              f"below floor {min_eps}", file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
PYEOF

# Fold the replication-phase metrics into the committed report.
python3 - "$OUT" "$WORK/replication.json" <<'PYEOF'
import json, sys
out, rep_path = sys.argv[1:3]
rep = json.load(open(out))
repl = json.load(open(rep_path))
rep["replication"] = repl
json.dump(rep, open(out, "w"), indent=2)
open(out, "a").write("\n")
print(f"   replication: caught up in {repl['replica_catchup_seconds']:.2f}s, "
      f"promoted in {repl['promote_seconds']:.2f}s, "
      f"{repl['replica_reads']} replica reads "
      f"(p99 {repl['replica_read_p99_ms']:.2f}ms)")
PYEOF

echo "== serve_smoke OK ($OUT written)"
