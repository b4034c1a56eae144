#!/usr/bin/env bash
# Chaos certification against a live harassd: start the service with a
# deterministic seeded per-document fault plan (stage panics, transient
# errors, poison documents, latency), drive it with concurrent clients,
# and assert the contract end to end:
#
#   - every request gets its answer (loadgen -fail-on-errors: transport
#     errors and unexpected statuses — any 5xx but a draining 503 — are
#     zero; a faulted document is retried or quarantined inside its own
#     200 response, and nothing else notices);
#   - the chaos actually bit (the server's own /metrics.json counts
#     captured stage panics and retried attempts);
#   - SIGTERM still drains cleanly to exit 0 afterwards.
#
# Usage: scripts/chaos_serve.sh [-clients N] [-duration D]
set -euo pipefail
cd "$(dirname "$0")/.."

clients=32
duration=5s
while [[ $# -gt 0 ]]; do
  case "$1" in
    -clients)  clients=$2; shift 2 ;;
    -duration) duration=$2; shift 2 ;;
    *) echo "usage: $0 [-clients N] [-duration D]" >&2; exit 2 ;;
  esac
done

plan='seed=7,panic=0.05,transient=0.05,poison=0.002,latency=0.08,latency-ms=5'

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

echo "== start harassd with chaos plan ($plan)"
"$workdir/harassd" -addr 127.0.0.1:0 -scale quick -chaos "$plan" 2>"$log" &
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

echo "== chaos load ($clients clients, $duration)"
report="$workdir/chaos_report.json"
"$workdir/loadgen" -addr "$addr" -clients "$clients" -duration "$duration" \
  -batch-every 10 -batch-docs 8 -fail-on-errors -out "$report"

field() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "$report" | head -1; }

errors=$(field errors)
ok=$(field ok)
panics=$(field stage_panics)
retries=$(field stage_retries)
quarantined=$(field quarantined_docs)
timeouts=$(field timeouts_504)

[[ "$errors" == "0" ]] || { echo "chaos run had $errors errored requests (want 0: nothing lost)" >&2; exit 1; }
[[ "$ok" -gt 0 ]] || { echo "chaos run scored no documents" >&2; exit 1; }
if [[ "$panics" -eq 0 || "$retries" -eq 0 ]]; then
  echo "chaos never bit: $panics stage panics, $retries retried attempts under plan $plan" >&2
  exit 1
fi
[[ "$timeouts" == "0" ]] || { echo "$timeouts requests timed out (504) under a plan with no stall" >&2; exit 1; }
echo "   certified: $ok requests answered 200, 0 lost, $panics stage panics captured," \
     "$retries attempts retried, $quarantined documents quarantined in-band"

echo "== graceful shutdown under chaos residue (SIGTERM)"
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

echo "OK — chaos-certified: no admitted request lost, faults confined to their documents"
