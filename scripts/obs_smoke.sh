#!/bin/sh
# obs-smoke: end-to-end check of the observability stack against a real
# server process (not httptest) — the same binary and flags an operator
# runs. Starts cmd/serve with tracing, the query log, and a 1ns
# slow-query threshold, drives a few requests, then asserts:
#   1. /metrics passes a scrape and contains one series of each core
#      family (requests, latency histogram, served counter, epoch,
#      query-log writes);
#   2. every /v1/ response carried an X-Trace-Id;
#   3. the query log contains parseable JSONL whose entries round-trip
#      through Go's decoder with the fields the feedback loop needs.
# Exits non-zero on the first violation. Needs only go + a POSIX shell.
set -eu

DIR="$(mktemp -d)"
QLOG="$DIR/qlog"
ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
LOG="$DIR/serve.log"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    [ -n "${PID:-}" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "obs-smoke: building cmd/serve..."
go build -o "$DIR/serve" ./cmd/serve

echo "obs-smoke: starting server on $ADDR (query log: $QLOG)..."
"$DIR/serve" -addr "$ADDR" -query-log "$QLOG" -slow-query 1ns >"$LOG" 2>&1 &
PID=$!

# Wait for readiness via /healthz (bypasses everything, answers early).
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "obs-smoke: FAIL server did not become ready"; cat "$LOG"; exit 1
    fi
    sleep 0.1
done

echo "obs-smoke: driving requests..."
hdrs="$DIR/hdrs"
for q in hanks "hanks 1994" "hanks drama"; do
    curl -sf -D "$hdrs" -o /dev/null "$BASE/v1/search" -d "{\"query\":\"$q\",\"k\":3}"
    grep -qi '^x-trace-id:' "$hdrs" || {
        echo "obs-smoke: FAIL /v1/search response missing X-Trace-Id"; exit 1; }
done
curl -sf "$BASE/v1/rows" -d '{"query":"hanks","k":2}' >/dev/null
curl -sf "$BASE/v1/diversify" -d '{"query":"hanks","k":3}' >/dev/null
# One construct dialogue, so the log records a session.
curl -sf "$BASE/v1/construct" \
    -d '{"action":"start","start":{"query":"hanks"}}' >/dev/null

echo "obs-smoke: scraping /metrics..."
METRICS="$DIR/metrics.txt"
curl -sf "$BASE/metrics" >"$METRICS"
for family in \
    'keysearch_requests_total{endpoint="search",code="200"}' \
    'keysearch_request_duration_seconds_bucket{endpoint="search",le="+Inf"}' \
    keysearch_served_total \
    keysearch_snapshot_epoch \
    keysearch_querylog_written_total; do
    grep -qF "$family" "$METRICS" || {
        echo "obs-smoke: FAIL /metrics is missing $family"; cat "$METRICS"; exit 1; }
done

# The slow-query threshold is 1ns, not a realistic one, because demo
# requests can all finish under 1ms: every request must have dumped its
# trace tree ("spans") to the server log.
i=0
until grep -q 'slow query:' "$LOG" && grep -q '"spans"' "$LOG"; do
    i=$((i + 1))
    if [ "$i" -ge 20 ]; then
        echo "obs-smoke: FAIL no slow-query trace dump in server log"; cat "$LOG"; exit 1
    fi
    sleep 0.1
done

echo "obs-smoke: draining server (SIGTERM flushes the query log)..."
kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "obs-smoke: decoding query log..."
go run ./cmd/qlogcheck -dir "$QLOG" -min 5

echo "obs-smoke: PASS"
