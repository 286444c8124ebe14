#!/usr/bin/env bash
# End-to-end smoke test of the observability surface: start stcd's local
# tuning daemon with telemetry armed on a short trace, scrape /healthz, /metrics
# (histogram families and HELP lines included) and /statusz while it
# serves, render the emitted event log with stcexplain — the search story
# and the -timeline span tree — and fail on any non-200 response, empty
# metrics, missing family, or an empty trajectory.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'kill "${pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/stcd" ./cmd/stcd
go build -o "$tmp/stcexplain" ./cmd/stcexplain

# The daemon picks a free port; -obs-wait keeps the endpoints up after the
# short stream drains so the scrapes below are race-free.
"$tmp/stcd" -workload jpeg -stream data -n 300000 -window 2000 \
    -obs-addr 127.0.0.1:0 -obs-log "$tmp/events.jsonl" -obs-wait 60s \
    >"$tmp/stcd.out" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|.*endpoints on http://\([^/]*\)/.*|\1|p' "$tmp/stcd.out" | head -1)"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "stcd exited early:"; cat "$tmp/stcd.out"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] && echo "stcd serving on $addr" || { echo "stcd never announced its address"; exit 1; }

# Wait for the stream to drain (the summary table prints, then -obs-wait
# holds the endpoints), so the scrape sees the final state.
for _ in $(seq 1 300); do
    grep -q '^current:' "$tmp/stcd.out" && break
    sleep 0.1
done

code="$(curl -s -o "$tmp/healthz.json" -w '%{http_code}' "http://$addr/healthz")"
[ "$code" = 200 ] || { echo "/healthz returned $code"; exit 1; }
grep -q '"status":"ok"' "$tmp/healthz.json" || { echo "unexpected healthz body:"; cat "$tmp/healthz.json"; exit 1; }

code="$(curl -s -o "$tmp/metrics.txt" -w '%{http_code}' "http://$addr/metrics")"
[ "$code" = 200 ] || { echo "/metrics returned $code"; exit 1; }
grep -q '^daemon_consumed_accesses [1-9]' "$tmp/metrics.txt" \
    || { echo "metrics lack a non-zero daemon_consumed_accesses:"; cat "$tmp/metrics.txt"; exit 1; }
grep -q '^daemon_windows_total [1-9]' "$tmp/metrics.txt" \
    || { echo "metrics lack a non-zero daemon_windows_total"; exit 1; }

# Latency histograms: the search-duration family must expose buckets, sum
# and count, under a HELP line — wall-clock lives only here, never in the
# event log.
grep -q '^# HELP daemon_search_seconds ' "$tmp/metrics.txt" \
    || { echo "metrics lack the daemon_search_seconds HELP line"; exit 1; }
grep -q '^# TYPE daemon_search_seconds histogram' "$tmp/metrics.txt" \
    || { echo "daemon_search_seconds is not exposed as a histogram"; exit 1; }
grep -q '^daemon_search_seconds_bucket{le="+Inf"} [1-9]' "$tmp/metrics.txt" \
    || { echo "daemon_search_seconds has no observations"; exit 1; }
grep -q '^daemon_search_seconds_count [1-9]' "$tmp/metrics.txt" \
    || { echo "daemon_search_seconds_count missing"; exit 1; }
grep -q '^daemon_persist_seconds_bucket' "$tmp/metrics.txt" \
    || { echo "daemon_persist_seconds histogram missing"; exit 1; }

# /statusz: the live JSON snapshot must report consumed progress and the
# current configuration...
code="$(curl -s -o "$tmp/statusz.json" -w '%{http_code}' "http://$addr/statusz")"
[ "$code" = 200 ] || { echo "/statusz returned $code"; exit 1; }
grep -q '"consumed_accesses": [1-9]' "$tmp/statusz.json" \
    || { echo "statusz lacks consumed progress:"; cat "$tmp/statusz.json"; exit 1; }
grep -q '"config":' "$tmp/statusz.json" \
    || { echo "statusz lacks the current config:"; cat "$tmp/statusz.json"; exit 1; }
# ...and what is serving: the cache implementation and the binary's build.
grep -q '"kernel": "fastsim.Kernel"' "$tmp/statusz.json" \
    || { echo "statusz lacks the serving kernel:"; cat "$tmp/statusz.json"; exit 1; }
grep -q '"go_version": "go[0-9]' "$tmp/statusz.json" \
    || { echo "statusz lacks the build's Go version:"; cat "$tmp/statusz.json"; exit 1; }

kill -INT "$pid"
wait "$pid" || true

# The explainer must reconstruct a non-empty trajectory within the paper's
# structural bound of 8 examined configurations per session (it exits
# non-zero on an empty trajectory or a bound violation).
"$tmp/stcexplain" -max-examined 8 "$tmp/events.jsonl"

# The span timeline must render the search and checkpoint spans with
# work-unit bars, and never mention wall-clock; its golden shape is the
# deterministic begin/end pairs in the event log.
"$tmp/stcexplain" -timeline "$tmp/events.jsonl" >"$tmp/timeline.txt"
grep -q '^span timeline' "$tmp/timeline.txt" || { echo "timeline header missing"; exit 1; }
grep -q 'tuner.search' "$tmp/timeline.txt" || { echo "timeline lacks tuner.search spans"; cat "$tmp/timeline.txt"; exit 1; }
grep -q 'configs' "$tmp/timeline.txt" || { echo "timeline lacks work units"; exit 1; }
! grep -q 'seconds' "$tmp/timeline.txt" || { echo "timeline leaked wall-clock:"; cat "$tmp/timeline.txt"; exit 1; }

echo "obs smoke: OK"
