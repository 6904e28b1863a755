#!/usr/bin/env sh
# cluster_smoke.sh — the distributed-control-plane acceptance gate
# (DESIGN.md §14), four arms sharing one workload and one reference digest:
#
#   1. reference: 1 replica + 4 agentd node groups, uninterrupted.
#   2. failover: a 3-replica group (majority quorum, log compaction on) has
#      its leader kill -9ed mid-run; a warm standby takes over.
#   3. follower-kill: the same group shape with one replica dead from the
#      start — the leader must keep accepting (2 of 3 is a quorum) with no
#      replication-lag timeouts.
#   4. compacted-restart: a single replica compacts its log, is SIGTERMed,
#      and a cold process boots from the snapshot-headed log.
#
# Every arm's outcome digest and predictor SHA must be byte-identical to
# the reference. Any wall-clock leakage into scheduling, any lost or
# double-applied input, and any divergence in the replay, quorum, or
# snapshot paths breaks the comparison.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
BASE=$((21000 + $$ % 20000))
SERVERD="$WORK/3sigma-serverd"
LOADGEN="$WORK/3sigma-loadgen"
AGENTD="$WORK/3sigma-agentd"
PIDS=""

# Workload + cluster shape shared by both runs. The submit stamps are
# offset 120 virtual seconds so the whole burst lands before the first
# stamped cycle fires (2s wall at -timescale 60).
LG_ARGS="-nodes 64 -partitions 4 -hours 0.05 -jobs-per-hour 400 -load 0.7 \
    -seed 3 -burst -offset 120 -timeout 150s"
SD_ARGS="-nodes 64 -partitions 4 -cycle 10 -timescale 60 -lease 500ms"

cleanup() {
    for P in $PIDS; do kill -9 "$P" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$SERVERD" ./cmd/3sigma-serverd
go build -o "$LOADGEN" ./cmd/3sigma-loadgen
go build -o "$AGENTD" ./cmd/3sigma-agentd

# start_agents <port-base>: 4 agentds, one 16-node partition each.
start_agents() {
    AGENTS=""
    for P in 0 1 2 3; do
        "$AGENTD" -addr "127.0.0.1:$(($1 + P))" -own "$P=16" \
            >>"$WORK/agentd.log" 2>&1 &
        PIDS="$PIDS $!"
        AGENTS="$AGENTS${AGENTS:+,}http://127.0.0.1:$(($1 + P))=$P"
    done
}

# digest <addr> <outfile>: extract the outcome digest + predictor SHA.
digest() {
    "$LOADGEN" -addr "$1" -metrics |
        sed -n 's/.*"outcome_digest":"\([^"]*\)".*"predictor_sha":"\([^"]*\)".*/\1 \2/p' >"$2"
    [ -s "$2" ] || { echo "FAIL: no digest in $1/v1/metrics"; exit 1; }
}

echo "-- reference run: 1 replica + 4 agents, uninterrupted"
start_agents $((BASE + 10))
REF="http://127.0.0.1:$BASE"
"$SERVERD" -addr "127.0.0.1:$BASE" $SD_ARGS \
    -replog "$WORK/ref.log" -agents "$AGENTS" \
    >>"$WORK/ref-serverd.log" 2>&1 &
REF_PID=$!
PIDS="$PIDS $REF_PID"
"$LOADGEN" -addr "$REF" -wait 10s $LG_ARGS
digest "$REF" "$WORK/ref.digest"
kill -TERM "$REF_PID" 2>/dev/null || true
for P in $PIDS; do kill -TERM "$P" 2>/dev/null || true; done
wait || true
PIDS=""
echo "reference digest: $(cat "$WORK/ref.digest")"

echo "-- failover run: 3 replicas + 4 agents, quorum acks + compaction, leader kill -9 mid-run"
start_agents $((BASE + 20))
PEERS=""
for R in 0 1 2; do
    PEERS="$PEERS${PEERS:+,}$R=http://127.0.0.1:$((BASE + 30 + R))"
done
R0_PID=""
for R in 0 1 2; do
    "$SERVERD" -addr "127.0.0.1:$((BASE + 30 + R))" $SD_ARGS \
        -replog "$WORK/r$R.log" -replica "$R" -peers "$PEERS" -agents "$AGENTS" \
        -compact-every 12 \
        >>"$WORK/r$R-serverd.log" 2>&1 &
    [ "$R" = 0 ] && R0_PID=$!
    PIDS="$PIDS $!"
done
GROUP="http://127.0.0.1:$((BASE + 30)),http://127.0.0.1:$((BASE + 31)),http://127.0.0.1:$((BASE + 32))"

# Wait for a leader (replica 0, the lowest live ID, wins the first election).
i=0
while [ "$("$LOADGEN" -addr "http://127.0.0.1:$((BASE + 30))" -readyz)" != "200" ]; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "FAIL: no leader elected"; exit 1; }
    sleep 0.1
done

"$LOADGEN" -addr "$GROUP" -clients 2 $LG_ARGS >"$WORK/loadgen.out" 2>&1 &
LG_PID=$!

# Kill -9 the leader mid-run: after the burst is in the replicated log
# (loadgen prints its "submitted" line once every stamp is acknowledged)
# but while stamped admissions and agent reconciliation are still being
# scheduled — the stamps stretch 180 virtual seconds (3s wall) past this
# point. Killing earlier would chop the input feed itself, which tests
# client retry, not deterministic failover.
i=0
until grep -q "submitted" "$WORK/loadgen.out" 2>/dev/null; do
    i=$((i + 1))
    [ $i -lt 300 ] || { echo "FAIL: burst never finished submitting"; cat "$WORK/loadgen.out"; exit 1; }
    sleep 0.1
done
sleep 1
kill -9 "$R0_PID"
echo "leader (replica 0) killed with SIGKILL"

wait "$LG_PID" || { echo "FAIL: loadgen did not survive the failover"; cat "$WORK/loadgen.out"; exit 1; }
cat "$WORK/loadgen.out"

# Find the new leader among the survivors and compare digests.
NEW=""
for R in 1 2; do
    A="http://127.0.0.1:$((BASE + 30 + R))"
    [ "$("$LOADGEN" -addr "$A" -readyz)" = "200" ] && NEW="$A"
done
[ -n "$NEW" ] || { echo "FAIL: no standby took over"; exit 1; }
digest "$NEW" "$WORK/failover.digest"
echo "failover digest:  $(cat "$WORK/failover.digest")"

if ! cmp -s "$WORK/ref.digest" "$WORK/failover.digest"; then
    echo "FAIL: failover run diverged from the uninterrupted reference"
    diff "$WORK/ref.digest" "$WORK/failover.digest" || true
    exit 1
fi
echo "failover == uninterrupted, byte-for-byte"
for P in $PIDS; do kill -TERM "$P" 2>/dev/null || true; done
wait || true
PIDS=""

echo "-- follower-kill run: 3-replica group with replica 2 dead from the start"
# Majority quorum is 2: the leader plus the one live follower must keep
# acknowledging every submit without ever waiting out SubmitSyncTimeout on
# the corpse.
start_agents $((BASE + 40))
PEERS=""
for R in 0 1 2; do
    PEERS="$PEERS${PEERS:+,}$R=http://127.0.0.1:$((BASE + 50 + R))"
done
for R in 0 1; do
    "$SERVERD" -addr "127.0.0.1:$((BASE + 50 + R))" $SD_ARGS \
        -replog "$WORK/fk$R.log" -replica "$R" -peers "$PEERS" -agents "$AGENTS" \
        -compact-every 12 \
        >>"$WORK/fk$R-serverd.log" 2>&1 &
    PIDS="$PIDS $!"
done
FK="http://127.0.0.1:$((BASE + 50))"
i=0
while [ "$("$LOADGEN" -addr "$FK" -readyz)" != "200" ]; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "FAIL: no leader elected with 2 of 3 replicas"; exit 1; }
    sleep 0.1
done
"$LOADGEN" -addr "$FK" $LG_ARGS
digest "$FK" "$WORK/fkill.digest"
echo "follower-kill digest: $(cat "$WORK/fkill.digest")"
if ! cmp -s "$WORK/ref.digest" "$WORK/fkill.digest"; then
    echo "FAIL: follower-kill run diverged from the uninterrupted reference"
    diff "$WORK/ref.digest" "$WORK/fkill.digest" || true
    exit 1
fi
"$LOADGEN" -addr "$FK" -metrics | grep -q '"repl_lag_timeouts":0' ||
    { echo "FAIL: dead follower caused replication-lag timeouts"; exit 1; }
echo "follower-kill == uninterrupted, no lag timeouts"
for P in $PIDS; do kill -TERM "$P" 2>/dev/null || true; done
wait || true
PIDS=""

echo "-- compacted-restart run: snapshot + truncate, SIGTERM, cold boot from the compacted log"
start_agents $((BASE + 60))
CR="http://127.0.0.1:$((BASE + 70))"
"$SERVERD" -addr "127.0.0.1:$((BASE + 70))" $SD_ARGS \
    -replog "$WORK/compact.log" -compact-every 12 -agents "$AGENTS" \
    >>"$WORK/cr-serverd.log" 2>&1 &
CR_PID=$!
PIDS="$PIDS $!"
"$LOADGEN" -addr "$CR" -wait 10s $LG_ARGS
digest "$CR" "$WORK/compact-pre.digest"
cmp -s "$WORK/ref.digest" "$WORK/compact-pre.digest" ||
    { echo "FAIL: compaction changed the live digest"; exit 1; }
kill -TERM "$CR_PID" 2>/dev/null || true
wait "$CR_PID" 2>/dev/null || true
# The log on disk must actually be compacted: the "3SRL" header magic only
# ever fronts a truncated, snapshot-based log.
[ "$(head -c 4 "$WORK/compact.log")" = "3SRL" ] ||
    { echo "FAIL: log never compacted (no 3SRL header)"; exit 1; }
"$SERVERD" -addr "127.0.0.1:$((BASE + 70))" $SD_ARGS \
    -replog "$WORK/compact.log" -compact-every 12 -agents "$AGENTS" \
    >>"$WORK/cr-serverd.log" 2>&1 &
PIDS="$PIDS $!"
i=0
while [ "$("$LOADGEN" -addr "$CR" -readyz)" != "200" ]; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "FAIL: restart from compacted log never became ready"; exit 1; }
    sleep 0.1
done
digest "$CR" "$WORK/compact-post.digest"
echo "compacted-restart digest: $(cat "$WORK/compact-post.digest")"
if ! cmp -s "$WORK/ref.digest" "$WORK/compact-post.digest"; then
    echo "FAIL: cold boot from the compacted log diverged from the reference"
    diff "$WORK/ref.digest" "$WORK/compact-post.digest" || true
    exit 1
fi
echo "compacted restart == uninterrupted, byte-for-byte"
echo "cluster smoke OK"
