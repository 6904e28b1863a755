#!/usr/bin/env sh
# smoke_service.sh — end-to-end smoke of the online service: build serverd +
# loadgen, replay ~50 jobs, assert every job reaches a terminal phase, the
# solver did real work and the tasks ran through the daemon's one in-process
# agent (the reconciler, not a private executor), then SIGTERM the daemon and
# verify a restart from the same checkpoint serves bit-identical predictor
# estimates.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PORT=$((20000 + $$ % 20000))
ADDR="http://127.0.0.1:$PORT"
CKPT="$WORK/predictor.ckpt"
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
        -cycle 10 -timescale 60 -checkpoint "$CKPT" -checkpoint-every 2s \
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

echo "-- batch 1: replay against $ADDR"
start_daemon
"$LOADGEN" -addr "$ADDR" -wait 10s -nodes 64 -partitions 4 \
    -hours 0.125 -jobs-per-hour 400 -load 0.7 -speedup 60 -seed 3 -timeout 150s

SOLVED=$(metric solver_nodes)
[ "${SOLVED:-0}" -gt 0 ] || { echo "FAIL: solver_nodes=$SOLVED after batch 1"; exit 1; }
SENT=$(metric directives_sent)
LIVE=$(metric agents_live)
[ "${SENT:-0}" -gt 0 ] && [ "${LIVE:-0}" -eq 1 ] ||
    { echo "FAIL: directives_sent=$SENT agents_live=$LIVE: the tasks did not run through the local agent"; exit 1; }
echo "tasks ran through the local agent: $SENT directives, $LIVE agent live"
P1=$("$LOADGEN" -addr "$ADDR" -predict "$PROBE")

echo "-- warm restart: SIGTERM, restart from $CKPT"
kill -TERM "$PID"
wait "$PID" || { echo "FAIL: serverd did not drain cleanly"; exit 1; }
PID=""
[ -s "$CKPT" ] || { echo "FAIL: no checkpoint written"; exit 1; }

start_daemon
P2=$("$LOADGEN" -addr "$ADDR" -wait 10s -predict "$PROBE")
[ "$P1" = "$P2" ] || { echo "FAIL: prediction changed across restart"; echo " before: $P1"; echo " after:  $P2"; exit 1; }
echo "predictor state survived restart: $P2"

echo "-- batch 2: replay against restarted daemon"
"$LOADGEN" -addr "$ADDR" -nodes 64 -partitions 4 \
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
