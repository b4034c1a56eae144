#!/usr/bin/env bash
# Hot-swap certification in two layers:
#
#   1. In-process, under the race detector: the serve package's swap
#      storm (seeded chaos plan, alternating SwapModel calls during
#      320 concurrent single and batch requests) asserts zero lost
#      requests and zero torn reads — every response is wholly one
#      generation: header, every model_generation field and every
#      score pair agree with that generation's golden function — plus
#      exactly-once swap accounting under racing swap calls.
#
#   2. End to end, against a live harassd -registry: boot trains and
#      commits generation 1, feedback + /v1/admin/retrain commits
#      generation 2, and a swap storm alternates the server between the
#      two generations over /v1/admin/swap while loadgen drives a
#      fixed 320-request budget with -fail-on-errors. The run must
#      lose zero requests, be served by both generations, observe at
#      least one transition mid-flight, and still drain cleanly on
#      SIGTERM.
#
# Usage: scripts/chaos_swap.sh [-clients N] [-requests N]
set -euo pipefail
cd "$(dirname "$0")/.."

clients=8
requests=320
while [[ $# -gt 0 ]]; do
  case "$1" in
    -clients)  clients=$2; shift 2 ;;
    -requests) requests=$2; shift 2 ;;
    *) echo "usage: $0 [-clients N] [-requests N]" >&2; exit 2 ;;
  esac
done

echo "== swap storm under -race (in-process golden certification)"
go test -race -count=1 \
  -run 'TestHotSwapStormNoLossNoTornReads|TestSwapModelIdempotentUnderConcurrency' \
  ./internal/serve/

workdir=$(mktemp -d)
log="$workdir/harassd.log"
cleanup() {
  [[ -n "${stormpid:-}" ]] && kill "$stormpid" 2>/dev/null || true
  [[ -n "${pid:-}" ]] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build harassd + loadgen"
go build -o "$workdir/harassd" ./cmd/harassd
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "== start harassd -registry (trains + commits generation 1)"
"$workdir/harassd" -addr 127.0.0.1:0 -scale quick \
  -registry "$workdir/registry" 2>"$log" &
pid=$!

addr=""
for _ in $(seq 1 150); do
  addr=$(sed -n 's|.*listening on http://||p' "$log")
  [[ -n "$addr" ]] && break
  kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; echo "harassd died during startup" >&2; exit 1; }
  sleep 0.2
done
[[ -n "$addr" ]] || { cat "$log" >&2; echo "harassd never reported an address" >&2; exit 1; }
echo "   harassd at $addr (pid $pid)"

for _ in $(seq 1 50); do
  curl -sf "http://$addr/readyz" >/dev/null && break
  sleep 0.1
done

echo "== commit generation 2 (feedback + retrain)"
fb='['
for i in $(seq 0 15); do
  [[ $i -gt 0 ]] && fb+=','
  fb+="{\"id\":\"swapfb-$i\",\"platform\":\"boards\",\"text\":\"keep reporting account $i until it is gone\",\"task\":\"cth\",\"label\":true}"
done
fb+=']'
curl -sf -X POST "http://$addr/v1/feedback" -d "$fb" >/dev/null
body=$(curl -sf -X POST "http://$addr/v1/admin/retrain" -d '{}')
grep -q '"generation": *2' <<<"$body" || { echo "retrain did not commit generation 2: $body" >&2; exit 1; }
# The storm exercises swaps, not shadowing: stop the candidate shadow
# so every request below is pure serving-path traffic.
curl -sf -X POST "http://$addr/v1/admin/shadow" -d '{"clear":true}' >/dev/null

echo "== swap storm during a $requests-request load ($clients clients)"
report="$workdir/swap_report.json"
(
  gen=2
  while [[ ! -f "$workdir/.done" ]]; do
    curl -sf -X POST "http://$addr/v1/admin/swap" -d "{\"generation\":$gen}" >/dev/null 2>&1 || true
    if [[ $gen -eq 2 ]]; then gen=1; else gen=2; fi
    sleep 0.05
  done
) &
stormpid=$!

"$workdir/loadgen" -addr "$addr" -clients "$clients" -duration 60s -requests "$requests" \
  -fail-on-errors -out "$report"
touch "$workdir/.done"
wait "$stormpid" 2>/dev/null || true
stormpid=""

field() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "$report" | head -1; }

reqs=$(field requests)
ok=$(field ok)
errors=$(field errors)
shed429=$(field shed_429)
shed503=$(field shed_503)
transitions=$(field generation_transitions)

[[ "$errors" == "0" ]] || { echo "swap storm lost $errors requests (want 0)" >&2; exit 1; }
[[ $((ok + shed429 + shed503)) -eq "$reqs" ]] || {
  echo "request accounting broken: ok=$ok shed429=$shed429 shed503=$shed503 != requests=$reqs" >&2; exit 1; }
[[ "$ok" -gt 0 ]] || { echo "swap storm scored no documents" >&2; exit 1; }
# model_generations is a multi-line indented array: both generations
# must appear inside it.
genlist=$(sed -n '/"model_generations": \[/,/\]/p' "$report")
grep -q '^ *1,\?$' <<<"$genlist" && grep -q '^ *2,\?$' <<<"$genlist" || {
  echo "run not served by both generations:" >&2; cat "$report" >&2; exit 1; }
[[ "$transitions" -ge 1 ]] || { echo "no generation transition observed mid-run" >&2; cat "$report" >&2; exit 1; }

echo "   certified: $reqs requests, $ok scored, 0 lost, served by gens 1+2, $transitions transitions"

echo "== graceful shutdown after the storm (SIGTERM)"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [[ $rc -ne 0 ]]; then
  cat "$log" >&2
  echo "harassd exited $rc after SIGTERM (want 0)" >&2
  exit 1
fi
grep -q "drained cleanly" "$log" || { cat "$log" >&2; echo "missing clean-drain log line" >&2; exit 1; }

echo "OK — hot-swap certified: no request lost, no torn read, clean drain"
