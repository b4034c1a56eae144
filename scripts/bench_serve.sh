#!/usr/bin/env bash
# Serving benchmark and lifecycle smoke: builds harassd and loadgen,
# starts harassd on an ephemeral port (training quick-scale classifiers
# at startup), drives it with concurrent clients, curl-smokes every
# endpoint, then SIGTERMs mid-idle and asserts a clean drain (exit 0).
#
# Three load phases land in BENCH_serve.json at the repo root (a -gate
# run checks them but leaves the committed file alone):
#
#   healthy — the server scoring normally;
#   swap    — a -registry server hot-swapped to a retrained generation
#             mid-run, with the swap latency (swap_latency_ns) reported
#             from the admin response;
#   shadow  — the same server shadow-scoring a candidate generation on a
#             shadow_rate sample of live traffic, measuring the rps
#             cost of divergence measurement (gated ≤ 10% in check.sh).
#
# (There used to be a "faulted" phase with 1 of 4 shards continuously
# failing. No shard exists to fail: a fault is confined to one document,
# and internal/serve's TestChaosCertificationNoLossNoDoubleScore
# certifies that under -race.)
#
# With -gate (how check.sh runs it) one same-run regression gate must
# hold: shadow throughput ≥ 90% of the swap phase's (the same server and
# traffic shape with shadowing off) — shadow scoring may cost at most
# 10% rps. Healthy-path throughput is bounded by the online-singles and
# online-batch workloads of bench/, not here.
#
# Usage: scripts/bench_serve.sh [-clients N] [-duration D] [-gate]
set -euo pipefail
cd "$(dirname "$0")/.."

clients=64
duration=5s
gate=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    -clients)  clients=$2; shift 2 ;;
    -duration) duration=$2; shift 2 ;;
    -gate)     gate=1; shift ;;
    *) echo "usage: $0 [-clients N] [-duration D] [-gate]" >&2; exit 2 ;;
  esac
done

workdir=$(mktemp -d)
log="$workdir/harassd.log"
cleanup() {
  [[ -n "${pid:-}" ]] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build harassd + loadgen"
go build -o "$workdir/harassd" ./cmd/harassd
go build -o "$workdir/loadgen" ./cmd/loadgen

# start_harassd LOGFILE [extra flags...] — starts a server, waits for
# readiness, and sets $pid and $addr.
start_harassd() {
  local logfile=$1; shift
  "$workdir/harassd" -addr 127.0.0.1:0 -scale quick "$@" 2>"$logfile" &
  pid=$!
  addr=""
  for _ in $(seq 1 150); do
    addr=$(sed -n 's|.*listening on http://||p' "$logfile")
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { cat "$logfile" >&2; echo "harassd died during startup" >&2; exit 1; }
    sleep 0.2
  done
  [[ -n "$addr" ]] || { cat "$logfile" >&2; echo "harassd never reported an address" >&2; exit 1; }
  for _ in $(seq 1 50); do
    curl -sf "http://$addr/readyz" >/dev/null && break
    sleep 0.1
  done
}

# stop_harassd LOGFILE — SIGTERM and assert a clean drain.
stop_harassd() {
  local logfile=$1
  kill -TERM "$pid"
  local rc=0
  wait "$pid" || rc=$?
  pid=""
  if [[ $rc -ne 0 ]]; then
    cat "$logfile" >&2
    echo "harassd exited $rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$logfile" || { cat "$logfile" >&2; echo "missing clean-drain log line" >&2; exit 1; }
}

echo "== start harassd (ephemeral port, quick-scale training)"
start_harassd "$log"
echo "   harassd at $addr (pid $pid)"

echo "== endpoint smoke"
# Capture each response before grepping: `curl | grep -q` races grep's
# early exit against curl's final write (curl exit 23 under pipefail).
body=$(curl -sf -X POST "http://$addr/v1/score" \
  -d '{"id":"s","platform":"discord","text":"everyone mass report his channel"}')
grep -q '"status":"ok"' <<<"$body"
body=$(printf '%s\n%s\n' \
  '{"id":"b1","platform":"gab","text":"dropping her address 99 cedar lane"}' \
  'not json' |
  curl -sf -X POST "http://$addr/v1/score/batch" --data-binary @-)
grep -q '"bad_lines":1' <<<"$body"
body=$(curl -sf "http://$addr/healthz")
grep -q ok <<<"$body"
body=$(curl -sf "http://$addr/metrics")
grep -q serve_requests_total <<<"$body"
grep -q serve_queue_depth <<<"$body"

echo "== healthy load ($clients clients, $duration)"
"$workdir/loadgen" -addr "$addr" -clients "$clients" -duration "$duration" \
  -batch-every 10 -batch-docs 16 -out "$workdir/healthy.json"

echo "== graceful shutdown (SIGTERM)"
stop_harassd "$log"

shadow_rate=0.25

echo "== start harassd -registry (lifecycle phases: swap latency + shadow overhead)"
lclog="$workdir/harassd_lifecycle.log"
start_harassd "$lclog" -registry "$workdir/registry"
echo "   harassd at $addr (pid $pid)"

echo "== commit generation 2 (feedback + retrain)"
fb='['
for i in $(seq 0 15); do
  [[ $i -gt 0 ]] && fb+=','
  fb+="{\"id\":\"benchfb-$i\",\"platform\":\"boards\",\"text\":\"keep reporting account $i until it is gone\",\"task\":\"cth\",\"label\":true}"
done
fb+=']'
curl -sf -X POST "http://$addr/v1/feedback" -d "$fb" >/dev/null
body=$(curl -sf -X POST "http://$addr/v1/admin/retrain" -d '{}')
grep -q '"generation": *2' <<<"$body" || { echo "retrain did not commit generation 2: $body" >&2; exit 1; }
curl -sf -X POST "http://$addr/v1/admin/shadow" -d '{"clear":true}' >/dev/null

echo "== swap load ($clients clients, $duration; hot-swap to generation 2 mid-run)"
"$workdir/loadgen" -addr "$addr" -clients "$clients" -duration "$duration" \
  -fail-on-errors -out "$workdir/swap.json" &
lgpid=$!
sleep 2
swapbody=$(curl -sf -X POST "http://$addr/v1/admin/swap" -d '{"generation":2}')
swap_ns=$(sed -n 's/.*"swap_ns": *\([0-9][0-9]*\).*/\1/p' <<<"$swapbody")
wait "$lgpid"
[[ -n "$swap_ns" ]] || { echo "no swap_ns in admin response: $swapbody" >&2; exit 1; }
echo "   swapped onto generation 2 in ${swap_ns}ns"

echo "== shadow load ($clients clients, $duration; generation 1 shadowing at rate $shadow_rate)"
curl -sf -X POST "http://$addr/v1/admin/shadow" \
  -d "{\"generation\":1,\"rate\":$shadow_rate}" >/dev/null
"$workdir/loadgen" -addr "$addr" -clients "$clients" -duration "$duration" \
  -fail-on-errors -out "$workdir/shadow.json"

echo "== graceful shutdown of the lifecycle server (SIGTERM)"
stop_harassd "$lclog"

# Compose the phases into one JSON document. Only a plain run refreshes
# the committed file; a -gate run keeps its numbers in the work
# directory so that check.sh leaves the tree as it found it.
report=BENCH_serve.json
[[ $gate -eq 1 ]] && report="$workdir/BENCH_serve.json"
{
  printf '{\n"healthy": '
  cat "$workdir/healthy.json"
  printf ',\n"swap": '
  cat "$workdir/swap.json"
  printf ',\n"shadow": '
  cat "$workdir/shadow.json"
  printf ',\n"swap_latency_ns": %s,\n"shadow_rate": %s\n}\n' "$swap_ns" "$shadow_rate"
} > "$report"

if [[ $gate -eq 1 ]]; then
  rps() { sed -n 's/.*"throughput_rps": \([0-9.]*\).*/\1/p' "$1"; }
  swap_rps=$(rps "$workdir/swap.json")
  shadow_rps=$(rps "$workdir/shadow.json")
  echo "== lifecycle gate (shadow $shadow_rps vs swap $swap_rps)"
  awk -v s="$shadow_rps" -v w="$swap_rps" 'BEGIN { exit !(s >= 0.90 * w) }' || {
    echo "GATE FAILED: shadow throughput $shadow_rps rps < 90% of no-shadow $swap_rps rps (overhead > 10%)" >&2
    exit 1
  }
  echo "OK — gate held (healthy + swap + shadow ran; BENCH_serve.json left as committed)"
else
  echo "OK — BENCH_serve.json written (healthy + swap + shadow)"
fi
