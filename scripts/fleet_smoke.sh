#!/usr/bin/env bash
# End-to-end smoke test of the fleet: start stcd serving the wire protocol,
# stream three workload traces into it as separate sessions, and assert
# that /metrics shows all three sessions fully consumed and settled, that
# the capacity allocator produced per-session assignments, and that
# stcexplain can extract one session's search story from the shared log.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'kill "${pid:-}" "${pid2:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/stcd" ./cmd/stcd
go build -o "$tmp/stcexplain" ./cmd/stcexplain

"$tmp/stcd" -serve -addr 127.0.0.1:0 -dir "$tmp/fleet" -window 1000 \
    -obs-addr 127.0.0.1:0 -obs-log "$tmp/events.jsonl" \
    -alloc-budget 16384 \
    >"$tmp/stcd.out" 2>&1 &
pid=$!

ingest="" obs=""
for _ in $(seq 1 100); do
    ingest="$(sed -n 's|.*fleet ingest on \([0-9.:]*\) .*|\1|p' "$tmp/stcd.out" | head -1)"
    obs="$(sed -n 's|.*endpoints on http://\([^/]*\)/.*|\1|p' "$tmp/stcd.out" | head -1)"
    [ -n "$ingest" ] && [ -n "$obs" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "stcd exited early:"; cat "$tmp/stcd.out"; exit 1; }
    sleep 0.1
done
[ -n "$ingest" ] && [ -n "$obs" ] || { echo "stcd never announced its addresses"; cat "$tmp/stcd.out"; exit 1; }
echo "stcd ingest on $ingest, observability on $obs"

# Three tenants, three workloads, one server.
for wl in crc bcnt bilv; do
    "$tmp/stcd" -connect "$ingest" -session "$wl" -workload "$wl" -n 150000
done

# The clients have hung up; wait for the shard workers to drain the queues
# (consumed reaches 150000 per session and every session settles).
settled=""
for _ in $(seq 1 300); do
    curl -s "http://$obs/metrics" >"$tmp/metrics.txt" || true
    if [ "$(grep -c 'fleet_session_consumed{session="[a-z]*"} 150000' "$tmp/metrics.txt")" = 3 ] \
        && [ "$(grep -c 'fleet_session_tuning{session="[a-z]*"} 0' "$tmp/metrics.txt")" = 3 ]; then
        settled=yes
        break
    fi
    sleep 0.1
done
[ -n "$settled" ] || { echo "three sessions never consumed+settled; metrics:"; cat "$tmp/metrics.txt"; exit 1; }

# The allocator must have partitioned the shared budget across the tenants.
[ "$(grep -c 'fleet_alloc_bytes{session="[a-z]*"} [1-9]' "$tmp/metrics.txt")" = 3 ] \
    || { echo "allocator produced no per-session assignments:"; cat "$tmp/metrics.txt"; exit 1; }

code="$(curl -s -o "$tmp/healthz.json" -w '%{http_code}' "http://$obs/healthz")"
[ "$code" = 200 ] || { echo "/healthz returned $code"; exit 1; }

kill -TERM "$pid"
wait "$pid" || true

# Per-session filtering of the shared fleet log must reconstruct a solo-run
# search story, within the paper's examined-configuration bound.
for wl in crc bcnt bilv; do
    "$tmp/stcexplain" -session "$wl" -max-examined 8 "$tmp/events.jsonl" >/dev/null
done

# Each session checkpoints into its own namespaced store.
for wl in crc bcnt bilv; do
    ls "$tmp/fleet/sessions/s-$wl/"ckpt-*.stck >/dev/null \
        || { echo "no checkpoints for session $wl"; exit 1; }
done

# --- Enforced leg: binding budgets with admission control. -------------------
# A budget of one minimum footprint (2048 B) admits exactly one session: the
# second parks in the one-deep pending queue (and is admitted FIFO when the
# first hangs up), the third is rejected with an error frame the client
# surfaces as a non-zero exit.
"$tmp/stcd" -serve -addr 127.0.0.1:0 -dir "$tmp/fleet-enforced" -window 1000 \
    -obs-addr 127.0.0.1:0 -obs-log "$tmp/events-enforced.jsonl" \
    -alloc-budget 2048 -enforce -pending-queue 1 \
    >"$tmp/stcd-enf.out" 2>&1 &
pid2=$!

ingest2="" obs2=""
for _ in $(seq 1 100); do
    ingest2="$(sed -n 's|.*fleet ingest on \([0-9.:]*\) .*|\1|p' "$tmp/stcd-enf.out" | head -1)"
    obs2="$(sed -n 's|.*endpoints on http://\([^/]*\)/.*|\1|p' "$tmp/stcd-enf.out" | head -1)"
    [ -n "$ingest2" ] && [ -n "$obs2" ] && break
    kill -0 "$pid2" 2>/dev/null || { echo "enforced stcd exited early:"; cat "$tmp/stcd-enf.out"; exit 1; }
    sleep 0.1
done
[ -n "$ingest2" ] && [ -n "$obs2" ] || { echo "enforced stcd never announced its addresses"; cat "$tmp/stcd-enf.out"; exit 1; }

# Session one: admitted, streams a long trace in the background so it holds
# the budget while the other opens arrive.
"$tmp/stcd" -connect "$ingest2" -session one -workload crc -n 2000000 >"$tmp/one.out" 2>&1 &
cpid1=$!
consuming=""
for _ in $(seq 1 300); do
    curl -s "http://$obs2/metrics" >"$tmp/metrics-enf.txt" || true
    grep -q 'fleet_session_consumed{session="one"} [1-9]' "$tmp/metrics-enf.txt" && { consuming=yes; break; }
    sleep 0.1
done
[ -n "$consuming" ] || { echo "session one never started consuming"; cat "$tmp/metrics-enf.txt"; exit 1; }

# Session two: over budget, parks (its stream buffers under backpressure).
"$tmp/stcd" -connect "$ingest2" -session two -workload bcnt -n 2000000 >"$tmp/two.out" 2>&1 &
cpid2=$!
parked=""
for _ in $(seq 1 300); do
    curl -s "http://$obs2/metrics" >"$tmp/metrics-enf.txt" || true
    grep -q '^fleet_sessions_pending 1$' "$tmp/metrics-enf.txt" && { parked=yes; break; }
    sleep 0.1
done
[ -n "$parked" ] || { echo "session two never parked"; cat "$tmp/metrics-enf.txt"; exit 1; }

# Session three: the queue is full, so the open is rejected — the client must
# exit non-zero and print the server's reason.
if "$tmp/stcd" -connect "$ingest2" -session three -workload bilv -n 1000 >"$tmp/three.out" 2>&1; then
    echo "rejected open did not fail the client:"; cat "$tmp/three.out"; exit 1
fi
grep -q "not admitted" "$tmp/three.out" \
    || { echo "client did not surface the rejection reason:"; cat "$tmp/three.out"; exit 1; }

# Session one finishes and hangs up; two is admitted from the queue, its
# buffered stream flushes, and it runs to completion.
wait "$cpid1" || { echo "admitted client failed:"; cat "$tmp/one.out"; exit 1; }
wait "$cpid2" || { echo "parked-then-admitted client failed:"; cat "$tmp/two.out"; exit 1; }

curl -s "http://$obs2/metrics" >"$tmp/metrics-enf.txt"
for want in \
    'fleet_admission_rejected_total 1' \
    'fleet_admitted_from_queue_total 1' \
    'fleet_session_consumed{session="two"} 2000000'; do
    grep -q "^$want$" "$tmp/metrics-enf.txt" \
        || { echo "enforced metrics lack '$want':"; cat "$tmp/metrics-enf.txt"; exit 1; }
done

kill -TERM "$pid2"
wait "$pid2" || true

# The shutdown report names the mode and the admission outcome.
grep -q 'fleet report (enforced):' "$tmp/stcd-enf.out" \
    || { echo "no enforced shutdown report:"; cat "$tmp/stcd-enf.out"; exit 1; }
grep -q '1 opens rejected, 1 admitted from the pending queue' "$tmp/stcd-enf.out" \
    || { echo "shutdown report missing admission counts:"; cat "$tmp/stcd-enf.out"; exit 1; }

echo "fleet smoke: OK"
