#!/usr/bin/env sh
# ci.sh — the repository's verification gate: vet, the 3sigma-lint static
# analyzer, build, the full test suite under the race detector, the
# differential solver oracle, one run of every solver and model-build
# benchmark, a fuzz
# smoke pass over the histogram/distribution property targets and the control
# plane's state machine, a
# fault-injection determinism gate (two identical seeded chaos runs must
# produce bit-identical outcome digests), a pinned-outcomes gate (the outcome
# digest of one seeded simulation per fault arm — fault-free and under fault
# injection — and the benchmark's exactly-repeating counters must equal the
# committed scripts/pins.txt, and a short serve-group run must end correct
# with no failed operation), a
# sharded-domain digest gate (-shards 1 vs -shards 8 must agree bitwise on an
# equivalence-partitioned workload), an end-to-end smoke of the
# online service (serverd + loadgen, including a SIGTERM warm restart from
# the decision log and a /readyz drain check), and the cluster durability
# gate (3-replica serverd group + 4 agentd node groups under majority-quorum
# acks and log compaction: leader kill -9 failover, a follower dead from the start, and
# a cold restart from a compacted log — every arm's outcome digest must be
# byte-identical to an uninterrupted single-replica run).
# Run from anywhere; operates on the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== 3sigma-lint =="
# The repo's own determinism & concurrency analyzer (DESIGN.md §10): map
# iteration in deterministic packages, wall-clock reads outside the clock
# boundary, unseeded randomness, exact float comparison, copied locks and
# unguarded annotated fields, sleep-and-look-again polling under internal/ —
# plus the interprocedural rules: lock-order cycles (potential deadlocks),
# the *Locked caller-holds-guard convention, blocking work under the hot
# Service.mu, and discarded durability errors.
# Exits non-zero on any unsuppressed finding. Stale //lint:allow comments
# are findings too, so the gate fails when a suppression outlives its bug.
go run ./cmd/3sigma-lint ./...

echo "== lint suppression budget =="
# The number of //lint:allow directives in the tree is capped by a
# committed baseline: new suppressions need a deliberate budget bump in
# the same change, and deleting dead ones ratchets the budget down.
ALLOWS=$(go run ./cmd/3sigma-lint -allows)
BUDGET=$(cat scripts/lint_allow_budget)
if [ "$ALLOWS" -gt "$BUDGET" ]; then
    echo "FAIL: $ALLOWS //lint:allow directives exceed the committed budget of $BUDGET"
    echo "      (justify the new suppression, then raise scripts/lint_allow_budget in the same change)"
    exit 1
fi
if [ "$ALLOWS" -lt "$BUDGET" ]; then
    echo "note: $ALLOWS allows < budget $BUDGET; consider ratcheting scripts/lint_allow_budget down"
fi
echo "suppressions: $ALLOWS / $BUDGET"

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmarks run =="
# One iteration of every solver and model-build benchmark, so none of them
# stops compiling or running unnoticed (make bench measures them).
go test -run '^$' -bench . -benchtime 1x ./internal/milp ./internal/core

echo "== solver oracle =="
# Pinned seed: 200 random scheduling-shaped MILPs, each solved cold, re-solved
# from its own root basis, and — the all-binary ones of up to 2·10^5
# combinations — held to the exhaustively enumerated optimum (DESIGN.md §9).
THREESIGMA_ORACLE_MODELS=200 THREESIGMA_ORACLE_SEED=1 \
    go test -count=1 -run '^TestDifferentialOracle$' ./internal/check

echo "== fuzz smoke =="
# A few seconds per target: regression corpus under testdata/fuzz plus a
# short randomized pass over the invariant verifiers.
go test -fuzz '^FuzzHistogramInvariants$' -fuzztime 5s -run '^$' ./internal/histogram
go test -fuzz '^FuzzFromState$' -fuzztime 5s -run '^$' ./internal/histogram
go test -fuzz '^FuzzConditional$' -fuzztime 5s -run '^$' ./internal/dist
# The control plane's state machine: arbitrary log records never panic it, and
# one it refuses leaves its encoding untouched (DESIGN.md §14).
go test -fuzz '^FuzzStateApply$' -fuzztime 10s -run '^$' ./internal/service
# The in-sync follower's read of a snapshot record's two leading fields agrees
# with json.Unmarshal and with what the leader wrote.
go test -fuzz '^FuzzSnapshotHeader$' -fuzztime 5s -run '^$' ./internal/service

echo "== fault determinism gate =="
# Same seed, same fault schedule => bit-identical outcomes, byte-for-byte.
# -virtualtime pins the solver budgets so wall-clock noise cannot leak into
# scheduling decisions.
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
go build -o "$WORK/3sigma-sim" ./cmd/3sigma-sim
SIM_ARGS="-env google -nodes 48 -partitions 4 -hours 0.05 -load 1.2 -seed 5 \
    -virtualtime -faults light -digest"
"$WORK/3sigma-sim" $SIM_ARGS | grep '^outcome digest:' >"$WORK/digest1"
"$WORK/3sigma-sim" $SIM_ARGS | grep '^outcome digest:' >"$WORK/digest2"
[ -s "$WORK/digest1" ] || { echo "FAIL: no digest line emitted"; exit 1; }
if ! cmp -s "$WORK/digest1" "$WORK/digest2"; then
    echo "FAIL: fault-injected runs with one seed diverged"
    diff "$WORK/digest1" "$WORK/digest2" || true
    exit 1
fi
echo "digests identical across runs:"
cat "$WORK/digest1"

echo "== pinned outcomes =="
# The gates above compare runs of this tree with each other; this one
# compares them with the tree the pins were committed from. Pinned are the
# outcome digest of the 48-node seed-5 simulation, one run per fault arm
# (the scheduler has one model-build path, DESIGN.md §12, so there is no
# second run to hold it against — the committed digest is the reference),
# with its solver: line (nodes, LP iterations, and how the solves ended:
# proved, node-capped, deadline-stopped, children solved cold),
# and, per sim workload of the benchmark, its correctness verdict and the
# counters that repeat exactly on any host: solver work (LP iterations, B&B
# nodes), patched cycles, starts, preemptions, cycles. A change that means to
# move one — a different search, a different schedule — re-commits the file
# and says why.
for FAULTS in "" "-faults light"; do
    TAG=fault-free
    if [ -n "$FAULTS" ]; then TAG=faults-light; fi
    "$WORK/3sigma-sim" -env google -nodes 48 -partitions 4 -hours 0.05 -load 1.2 -seed 5 \
        -virtualtime $FAULTS -digest | grep -e '^outcome digest:' -e '^solver:' >"$WORK/dig"
    [ "$(wc -l <"$WORK/dig")" -eq 2 ] || { echo "FAIL: no digest and solver lines emitted (faults='$FAULTS')"; exit 1; }
    sed -e "s/^outcome digest:/sim.digest.$TAG/" -e "s/^solver:/sim.solver.$TAG/" "$WORK/dig" >>"$WORK/pins"
done
for W in sim-e2e sim-scale; do
    LINE=$(go run ./bench -workload "$W" -seconds 2 -trace 1 | tail -n 1)
    echo "$W.correct $(echo "$LINE" | sed -n 's/^{"correct":\([a-z]*\),.*/\1/p')" >>"$WORK/pins"
    for K in milp.lp_iters milp.bb_nodes core.patched_cycles core.starts core.preemptions simulator.cycles; do
        echo "$W.$K $(echo "$LINE" | sed -n "s/.*\"$K\":{\"value\":\([^,]*\),.*/\1/p")" >>"$WORK/pins"
    done
done
if ! grep -v '^#' scripts/pins.txt | diff - "$WORK/pins"; then
    echo "FAIL: outcomes differ from scripts/pins.txt (< committed, > this tree)"
    echo "      if the change is meant: re-commit scripts/pins.txt and say why in CHANGES.md"
    exit 1
fi
echo "pinned outcomes hold:"
cat "$WORK/pins"
# The serve workload has no counter that repeats exactly (its records follow
# wall-clock arrivals), but its verdict does: 3 replicas and 4 agents over
# loopback under quorum acks and compaction for 5 s — every submit on a quorum
# of logs, the replicas converged with no divergence seen, the stopped leader's
# log restarting to the same digests. No timing is gated.
LINE=$(go run ./bench -workload serve-group -seconds 5 | tail -n 1)
case "$LINE" in
    '{"correct":true,"attempted":'*',"failed":0,"metrics":'*)
        echo "serve-group: correct, 0 failed" ;;
    *)
        echo "FAIL: serve-group did not end correct with 0 failed operations:"
        echo "$LINE" | cut -c1-200
        exit 1 ;;
esac

echo "== sharded-domain digest gate =="
# Sharded scheduling domains (DESIGN.md §13) are contractually
# outcome-neutral on an equivalence-partitioned workload (every SLO job
# prefers exactly one domain, prohibitive slowdown elsewhere): the combined
# outcome digest must be bitwise-identical across -shards 1 / -shards 8.
# go test -race ./internal/shard is covered by the suite-wide race run
# above; the cross-process digest comparison here is what pins the merge
# order.
SHARD_ARGS="-env google -nodes 256 -partitions 32 -hours 0.1 -load 0.35 -seed 5 \
    -virtualtime -domains 8 -sloshare 1 -nonpref 1000 -digest"
"$WORK/3sigma-sim" $SHARD_ARGS -shards 1 | grep '^outcome digest:' >"$WORK/sh1"
"$WORK/3sigma-sim" $SHARD_ARGS -shards 8 | grep '^outcome digest:' >"$WORK/sh8"
[ -s "$WORK/sh1" ] || { echo "FAIL: no digest line emitted"; exit 1; }
if ! cmp -s "$WORK/sh1" "$WORK/sh8"; then
    echo "FAIL: -shards 1 vs -shards 8 outcomes diverged"
    diff "$WORK/sh1" "$WORK/sh8" || true
    exit 1
fi
echo "sharded == monolithic:"
cat "$WORK/sh1"

echo "== service e2e smoke =="
./scripts/smoke_service.sh

echo "== cluster durability digest gate =="
# Distributed control plane (DESIGN.md §14): agents own execution, replicas
# mirror the decision log under majority-quorum acks with periodic
# snapshot-based compaction. Four arms — uninterrupted reference, leader
# kill -9 failover, a follower dead from the start (2 of 3 still acks,
# zero lag timeouts), and a SIGTERM + cold boot from a compacted log —
# must all land on byte-identical outcome digests and predictor SHAs.
./scripts/cluster_smoke.sh

echo "CI OK"
