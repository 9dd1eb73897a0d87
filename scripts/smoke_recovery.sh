#!/usr/bin/env bash
# Kill/restart recovery smoke: boot the real serve binary with a WAL
# state directory, commit placements and queued work over HTTP, SIGKILL
# the process mid-flight (no graceful drain, no compaction), restart it
# from the same directory, and require /v1/fleet/state to come back
# byte-identical. This is the end-to-end projection of the chaos
# kill/restart fault class (internal/chaos TestKillRestartRecovery)
# through the actual binary, WAL directory, and HTTP surface.
#
#   ./scripts/smoke_recovery.sh [port]
#
# Synthetic mode keeps the whole drill under a few seconds: the
# closed-form power model and truth-table features stand in for
# training and profiling without changing any placement mechanics.
set -euo pipefail
cd "$(dirname "$0")/.."

port=${1:-18090}
addr="127.0.0.1:$port"
dir=$(mktemp -d)
bin=$(mktemp)
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$dir" "$bin"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/serve

start() {
  "$bin" -synthetic -addr "$addr" -state-dir "$dir" -shards 2 \
    -fleet "workstation,workstation,server,server" -fleet-queue-cap 8 2>/dev/null &
  pid=$!
  disown "$pid" 2>/dev/null || true # keep bash from reporting the SIGKILL
  for _ in $(seq 1 100); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$pid" 2>/dev/null || { echo "smoke_recovery: serve exited during startup" >&2; exit 1; }
    sleep 0.1
  done
  echo "smoke_recovery: serve did not become healthy" >&2
  exit 1
}

start
# Fill all 24 slots (2 workstations x 2 cores + 2 servers x 4 cores, two
# per core) across both shards, then one priority arrival in queue mode:
# it preempts a resident, and the victim re-enters the admission queue
# under a ticket the WAL must carry across the kill.
curl -sf -XPOST "http://$addr/v1/fleet/place" -d '{"benches":["mcf","gzip","vpr","art","swim","ammp","applu","twolf","equake","bzip2"]}' >/dev/null
curl -sf -XPOST "http://$addr/v1/fleet/place" -d '{"benches":["mcf","gzip","vpr","art","swim","ammp","applu","twolf","equake","bzip2"]}' >/dev/null
curl -sf -XPOST "http://$addr/v1/fleet/place" -d '{"benches":["mcf","gzip","vpr","art"]}' >/dev/null
vip=$(curl -sf -XPOST "http://$addr/v1/fleet/place" -d '{"benches":["mcf"],"queue":true,"priority":1}')
case "$vip" in
  *'"requeued":true'*) ;;
  *) echo "smoke_recovery: FAIL — the priority arrival did not requeue a victim: $vip" >&2; exit 1 ;;
esac
before=$(curl -sf "http://$addr/v1/fleet/state")

case "$before" in
  *'"queue_depth":1'*) ;;
  *) echo "smoke_recovery: FAIL — no queued victim to recover: $before" >&2; exit 1 ;;
esac

kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

start
after=$(curl -sf "http://$addr/v1/fleet/state")
kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null || true
pid=""

if [ "$before" != "$after" ]; then
  echo "smoke_recovery: FAIL — /v1/fleet/state diverged across kill/restart" >&2
  diff <(printf '%s' "$before") <(printf '%s' "$after") >&2 || true
  exit 1
fi
echo "smoke_recovery: OK — state byte-identical across SIGKILL restart ($(printf '%s' "$before" | wc -c) bytes)"
