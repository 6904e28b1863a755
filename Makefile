GO ?= go

.PHONY: build test race vet lint lint-fast check fuzz verify bench bench-fig1 serverd loadgen smoke cluster-smoke faults

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs 3sigma-lint, the repo's determinism & concurrency analyzer
# (DESIGN.md §10). Any unsuppressed diagnostic is a hard failure.
lint:
	$(GO) run ./cmd/3sigma-lint ./...

# lint-fast reports only on the packages touched since the merge base
# (override with PKGS="./internal/milp ..."). The whole module is still
# loaded — type-checking and the interprocedural model are module-wide —
# so this trims output, not analysis; use plain `make lint` before pushing.
lint-fast:
	@pkgs="$(PKGS)"; \
	if [ -z "$$pkgs" ]; then \
		base=$$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD~1 2>/dev/null || echo ""); \
		if [ -n "$$base" ]; then \
			pkgs=$$( { git diff --name-only "$$base" -- '*.go'; git diff --name-only -- '*.go'; } | xargs -r -n1 dirname | sort -u | sed 's|^|./|'); \
		fi; \
	fi; \
	if [ -z "$$pkgs" ]; then echo "lint-fast: no changed Go packages"; exit 0; fi; \
	echo "lint-fast: $$pkgs"; \
	$(GO) run ./cmd/3sigma-lint $$pkgs

# check runs the correctness suite: the static analyzer, the solver oracle
# (200 pinned-seed MILPs: incumbent, warm-basis and exhaustive-enumeration
# arms), and the histogram/distribution invariant property tests
# (DESIGN.md §9–10).
check: lint
	THREESIGMA_ORACLE_MODELS=200 THREESIGMA_ORACLE_SEED=1 \
		$(GO) test -count=1 ./internal/check

# fuzz runs each fuzz target for a short randomized pass (the regression
# corpus under testdata/fuzz always runs as part of plain `make test`).
fuzz:
	$(GO) test -fuzz '^FuzzHistogramInvariants$$' -fuzztime 10s -run '^$$' ./internal/histogram
	$(GO) test -fuzz '^FuzzFromState$$' -fuzztime 10s -run '^$$' ./internal/histogram
	$(GO) test -fuzz '^FuzzCDFAscending$$' -fuzztime 10s -run '^$$' ./internal/histogram
	$(GO) test -fuzz '^FuzzConditional$$' -fuzztime 10s -run '^$$' ./internal/dist

# verify is the CI gate: vet + lint + build + race-enabled tests + oracle +
# fuzz smoke + determinism, pinned-outcome and service e2e gates.
verify:
	./scripts/ci.sh

# bench runs the cycle path's microbenchmarks at the largest model the
# benchmark workloads reach (85 × 108): one node relaxation, one
# branch-and-bound child re-solved from its parent's tableau (MB/s counts the
# tableau bytes it copies) and a budgeted cycle-sized solve in the solver, and
# the model build — a quiet cycle and an arrival cycle — in the scheduler.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkNodeLP|BenchmarkWarmChild|BenchmarkSolveSchedulingCycle' -benchmem ./internal/milp
	$(GO) test -run '^$$' -bench 'BenchmarkBuildModel' -benchmem ./internal/core

# bench-fig1 reproduces the medium-scale Fig 1 end-to-end benchmark.
bench-fig1:
	$(GO) run ./cmd/3sigma-bench -fig 1 -scale medium

# serverd / loadgen build the online-service binaries into ./bin.
serverd:
	$(GO) build -o bin/3sigma-serverd ./cmd/3sigma-serverd

loadgen:
	$(GO) build -o bin/3sigma-loadgen ./cmd/3sigma-loadgen

# smoke runs the end-to-end service check (replay + warm restart).
smoke:
	./scripts/smoke_service.sh

# cluster-smoke runs the distributed control plane durability gate: leader
# kill -9 failover under quorum acks + log compaction, a follower dead from
# the start, and a cold restart from a compacted log — every arm's outcome
# digest compared byte-for-byte against an uninterrupted single-replica run
# (DESIGN.md §14).
cluster-smoke:
	./scripts/cluster_smoke.sh

# faults runs a pinned-seed fault-injection scenario: node churn, job
# crashes, and stragglers on the google workload, printing the fault panel
# and the outcome digest (reruns must print the identical digest line).
faults:
	$(GO) run ./cmd/3sigma-sim -env google -nodes 48 -partitions 4 \
		-hours 0.05 -load 1.2 -seed 5 -faults light -digest
