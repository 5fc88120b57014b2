#!/usr/bin/env bash
# Follow-mode smoke: prove the live-ingestion path end to end with real
# binaries — tracegen streams a trace to disk in flushed batches
# (-append-every) while ocelotld tails it in follow mode; the daemon must
# ingest events as they land (events strictly grow between polls), serve
# the live window (live=1), publish a follow block whose horizon never
# moves backwards, count follow ticks in /metrics, stop ingestion on
# DELETE, and report no armed failpoints. Alongside it, `ocelotl -follow`
# (the same live-ingestion engine, from the CLI) tails the same file and
# must exit 0 on its idle timeout with its last tick line reporting every
# event the writer wrote.
#
#   scripts/follow_smoke.sh            # defaults: ~case A at small scale
#   PORT=8099 scripts/follow_smoke.sh  # alternate port
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-8098}"

tmp="$(mktemp -d)"
daemon=""
writer=""
cli=""
cleanup() {
  [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
  [ -n "$writer" ] && kill "$writer" 2>/dev/null || true
  [ -n "$cli" ] && kill "$cli" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/tracegen" ./cmd/tracegen
go build -o "$tmp/ocelotld" ./cmd/ocelotld
go build -o "$tmp/ocelotl" ./cmd/ocelotl

# A writer that takes several seconds: flush every 2000 events, pause
# between flushes so the daemon observes many distinct ticks.
"$tmp/tracegen" -case A -scale 0.002 -out "$tmp/live.bin" \
  -append-every 2000 -append-interval 150ms &
writer=$!

# The CLI follower tails the same file (it waits for the header itself)
# and exits once no new events have arrived for a second.
"$tmp/ocelotl" -trace "$tmp/live.bin" -follow -follow-poll 50ms -follow-idle 1s > "$tmp/cli.out" &
cli=$!

"$tmp/ocelotld" -addr "127.0.0.1:$PORT" &
daemon=$!
for i in $(seq 1 50); do
  curl -fs "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

# Follow-load while the writer is still running.
curl -fs -X POST -d "{\"id\":\"live\",\"path\":\"$tmp/live.bin\",\"follow\":true,\"poll_ms\":100}" \
  "http://127.0.0.1:$PORT/traces" > "$tmp/load.json"
grep -q '"follow"' "$tmp/load.json"

events_of() {
  curl -fs "http://127.0.0.1:$PORT/traces/live" | grep -o '"events":[0-9]*' | grep -o '[0-9]*'
}
horizon_of() {
  curl -fs "http://127.0.0.1:$PORT/traces/live" | grep -o '"horizon":[0-9.e+-]*' | head -1 | cut -d: -f2
}

# Ingestion must make progress while the writer runs: two polls a second
# apart must show strictly more events, and the horizon must not retreat.
e1=$(events_of); h1=$(horizon_of)
sleep 1
e2=$(events_of); h2=$(horizon_of)
echo "follow_smoke: events $e1 -> $e2, horizon $h1 -> $h2"
if [ "$e2" -le "$e1" ]; then
  echo "follow_smoke: FAIL — no ingestion progress while the writer runs" >&2
  exit 1
fi
awk -v a="$h1" -v b="$h2" 'BEGIN { exit (b+0 >= a+0) ? 0 : 1 }' || {
  echo "follow_smoke: FAIL — horizon moved backwards ($h1 -> $h2)" >&2
  exit 1
}

# The live window answers while ingestion is in flight.
curl -fs "http://127.0.0.1:$PORT/traces/live/aggregate?p=0.35&live=1" | grep -q '"areas"'
# A window past the horizon is refused.
code=$(curl -s -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:$PORT/traces/live/aggregate?p=0.35&lo=1e12&hi=2e12&slices=4")
[ "$code" = "400" ] || { echo "follow_smoke: FAIL — past-horizon query got $code, want 400" >&2; exit 1; }

# Let the writer finish, then the daemon must converge on the full trace.
wait "$writer"; writer=""
total=$("$tmp/tracegen" -case A -scale 0.002 -out "$tmp/full.bin" 2>&1 | grep -o '[0-9]* events' | grep -o '[0-9]*' || true)
for i in $(seq 1 100); do
  [ "$(events_of)" -ge "${total:-1}" ] && break
  sleep 0.1
done
echo "follow_smoke: converged at $(events_of) events (writer wrote ${total:-?})"
if [ -n "$total" ] && [ "$(events_of)" -ne "$total" ]; then
  echo "follow_smoke: FAIL — daemon ingested $(events_of) of $total events" >&2
  exit 1
fi

# The CLI follower must finish on its idle timeout, having ingested the
# whole trace (the 4th field of a tick line is its event count).
if ! wait "$cli"; then
  cli=""
  echo "follow_smoke: FAIL — ocelotl -follow exited non-zero" >&2
  exit 1
fi
cli=""
cli_events=$(tail -n 1 "$tmp/cli.out" | awk '{print $4}')
echo "follow_smoke: ocelotl -follow printed $(wc -l < "$tmp/cli.out") lines, last at $cli_events events"
if [ -z "$total" ] || [ "$cli_events" != "$total" ]; then
  echo "follow_smoke: FAIL — ocelotl -follow ended at ${cli_events:-?} of ${total:-?} events" >&2
  exit 1
fi

# Follow counters surfaced at /metrics, and no failpoints armed. (grep
# without -q so it drains curl's pipe — -q + pipefail turns an early
# match into a curl write error.)
curl -fs "http://127.0.0.1:$PORT/metrics" | grep '^ocelotl_follow_ticks_total [1-9]' >/dev/null
curl -fs "http://127.0.0.1:$PORT/debug/failpoints" | grep -Eq '"active":(null|\[\])' || {
  echo "follow_smoke: FAIL — failpoints armed on a production-shaped daemon" >&2
  exit 1
}

# DELETE stops the follower and frees the id.
curl -fs -X DELETE "http://127.0.0.1:$PORT/traces/live"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/traces/live")
[ "$code" = "404" ] || { echo "follow_smoke: FAIL — trace survived DELETE ($code)" >&2; exit 1; }

kill "$daemon" && wait "$daemon" 2>/dev/null || true
daemon=""
echo "follow_smoke: OK — live ingestion end to end"
