#!/usr/bin/env sh
# smoke_service.sh — end-to-end smoke of the online service: build serverd +
# loadgen, replay ~50 jobs, assert every job reaches a terminal phase, the
# solver did real work and the tasks ran through the daemon's one in-process
# agent (the reconciler, not a private executor), then SIGTERM the daemon and
# restart it over its decision log — the one way a daemon restarts warm
# (-replog; -compact-every 5, so the restart installs the newest
# snapshot and replays the suffix behind it): the restarted daemon must serve
# bit-identical predictor estimates, report the same outcome digest and
# predictor SHA on /v1/metrics, and count no divergence. Before and after the
# restart /v1/metrics "trained" must equal the history count loadgen fed.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PORT=$((20000 + $$ % 20000))
ADDR="http://127.0.0.1:$PORT"
DLOG="$WORK/decision.log"
SERVERD="$WORK/3sigma-serverd"
LOADGEN="$WORK/3sigma-loadgen"
PROBE="user3,job_17,4,1"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$SERVERD" ./cmd/3sigma-serverd
go build -o "$LOADGEN" ./cmd/3sigma-loadgen

start_daemon() {
    "$SERVERD" -addr "127.0.0.1:$PORT" -nodes 64 -partitions 4 \
        -cycle 10 -timescale 60 -replog "$DLOG" -compact-every 5 \
        -drain-grace 2s \
        >>"$WORK/serverd.log" 2>&1 &
    PID=$!
}

readyz() {
    "$LOADGEN" -addr "$ADDR" -readyz
}

# metric <name>: one integer field of /v1/metrics (names are unique in it).
metric() {
    "$LOADGEN" -addr "$ADDR" -metrics |
        sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"
}

# digests: the outcome digest and predictor SHA on /v1/metrics.
digests() {
    "$LOADGEN" -addr "$ADDR" -metrics |
        sed -n 's/.*"outcome_digest":"\([^"]*\)".*"predictor_sha":"\([^"]*\)".*/\1 \2/p'
}

# trained_matches <what>: /v1/metrics "trained" must equal the history count
# batch 1's loadgen printed ("pre-trained daemon with N history records").
trained_matches() {
    TRAINED=$(metric trained)
    [ -n "$FED" ] && [ "$TRAINED" = "$FED" ] ||
        { echo "FAIL: trained=$TRAINED $1, want the $FED history records fed"; exit 1; }
}

echo "-- batch 1: replay against $ADDR"
start_daemon
"$LOADGEN" -addr "$ADDR" -wait 10s -nodes 64 -partitions 4 \
    -hours 0.125 -jobs-per-hour 400 -load 0.7 -speedup 60 -seed 3 -timeout 150s \
    >"$WORK/loadgen1.out" || { cat "$WORK/loadgen1.out"; exit 1; }
cat "$WORK/loadgen1.out"
FED=$(sed -n 's/^pre-trained daemon with \([0-9][0-9]*\) history records$/\1/p' "$WORK/loadgen1.out")
trained_matches "after batch 1"
echo "history feed observed whole: trained=$TRAINED"

SOLVED=$(metric solver_nodes)
[ "${SOLVED:-0}" -gt 0 ] || { echo "FAIL: solver_nodes=$SOLVED after batch 1"; exit 1; }
# The scheduler's own timers read the cycle-indexed logical clock, which
# stands still through a cycle; mean_cycle_ms is the daemon's wall-clock
# measurement of the cycles it solved, so it must read above zero.
MEAN=$("$LOADGEN" -addr "$ADDR" -metrics | sed -n 's/.*"mean_cycle_ms":\([0-9.eE+-]*\).*/\1/p')
awk -v m="${MEAN:-0}" 'BEGIN { exit !(m > 0) }' ||
    { echo "FAIL: mean_cycle_ms=$MEAN after batch 1, want > 0"; exit 1; }
echo "mean_cycle_ms: $MEAN"
SENT=$(metric directives_sent)
LIVE=$(metric agents_live)
[ "${SENT:-0}" -gt 0 ] && [ "${LIVE:-0}" -eq 1 ] ||
    { echo "FAIL: directives_sent=$SENT agents_live=$LIVE: the tasks did not run through the local agent"; exit 1; }
echo "tasks ran through the local agent: $SENT directives, $LIVE agent live"
P1=$("$LOADGEN" -addr "$ADDR" -predict "$PROBE")
D1=$(digests)
[ -n "$D1" ] || { echo "FAIL: no outcome digest / predictor SHA on /v1/metrics"; exit 1; }

echo "-- warm restart: SIGTERM, restart over $DLOG"
kill -TERM "$PID"
wait "$PID" || { echo "FAIL: serverd did not drain cleanly"; exit 1; }
PID=""
[ -s "$DLOG" ] || { echo "FAIL: no decision log written"; exit 1; }

start_daemon
P2=$("$LOADGEN" -addr "$ADDR" -wait 10s -predict "$PROBE")
[ "$P1" = "$P2" ] || { echo "FAIL: prediction changed across restart"; echo " before: $P1"; echo " after:  $P2"; exit 1; }
echo "predictor state survived restart: $P2"
grep -q "installed snapshot" "$WORK/serverd.log" ||
    { echo "FAIL: the restart installed no snapshot"; exit 1; }
D2=$(digests)
[ "$D1" = "$D2" ] || { echo "FAIL: digests changed across restart"; echo " before: $D1"; echo " after:  $D2"; exit 1; }
DIVERGED=$(metric diverged)
[ "$DIVERGED" = "0" ] || { echo "FAIL: diverged=$DIVERGED after the restart, want 0"; exit 1; }
trained_matches "after the restart"
echo "history feed survived restart: trained=$TRAINED"
echo "outcome digest and predictor SHA survived restart, 0 divergences: $D2"

echo "-- batch 2: replay against restarted daemon"
# The restarted daemon remembers batch 1's jobs, and every google draw numbers
# its jobs from 2561: batch 2 draws hedgefund jobs, numbered from 2001.
"$LOADGEN" -addr "$ADDR" -env hedgefund -nodes 64 -partitions 4 \
    -hours 0.125 -jobs-per-hour 400 -load 0.7 -speedup 60 -seed 4 -timeout 150s

SOLVED=$(metric solver_nodes)
[ "${SOLVED:-0}" -gt 0 ] || { echo "FAIL: solver_nodes=$SOLVED after batch 2"; exit 1; }

echo "-- readiness drain: SIGTERM flips /readyz to 503 while /healthz stays 200"
READY=$(readyz)
[ "$READY" = "200" ] || { echo "FAIL: readyz=$READY while serving, want 200"; exit 1; }
kill -TERM "$PID"
# The daemon holds the listener open for -drain-grace after withdrawing
# readiness; poll until the flip is visible.
DRAIN=""
i=0
while [ $i -lt 15 ]; do
    DRAIN=$(readyz)
    [ "$DRAIN" = "503" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ "$DRAIN" = "503" ] || { echo "FAIL: readyz=$DRAIN after SIGTERM, want 503"; exit 1; }
echo "readyz flipped 200 -> 503 on SIGTERM"
wait "$PID" || { echo "FAIL: serverd did not drain cleanly"; exit 1; }
PID=""

echo "service smoke OK"
