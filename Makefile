# Corleone build targets. `make verify` is the pre-merge bar (ROADMAP.md);
# tier-1 is the build+test subset.

GO ?= go

.PHONY: build test lint lint-alloc verify bench bench-smoke chaos fuzz perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static gates: vet plus corlint, the repo's own invariant linter
# (determinism, float hygiene, durability, concurrency — see DESIGN.md
# "Enforced invariants"). Exits nonzero on any unsuppressed finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/corlint ./...

# Compiler-backed allocation gate: diff `go build -gcflags=-m=1` escape
# and inlining diagnostics for the hot-path packages against the
# checked-in lint/allocbaseline.json. A new heap escape or lost inlining
# in a guarded function fails; after a reviewed tradeoff, re-baseline
# with `go run ./cmd/corlint -allocupdate`.
lint-alloc:
	$(GO) run ./cmd/corlint -alloc

# gofmt gate + lint + build + full suite under the race detector.
verify:
	sh scripts/verify.sh

# Chaos suite under the race detector: every seeded fault schedule
# (transport 5xx bursts/drops/latency, torn journal writes, kill-points,
# snapshot kill-points mid-write/mid-rotate and corrupt snapshot
# generations) drives a full engine run through the HTTP marketplace and
# the resume journal, and must converge bit-identically to the unfaulted
# baseline with no double-pay. The runsvc snapshot tests ride along: the
# corruption fallback ladder, the bounded-replay cost assertion, and
# compaction retention. -count=1 forces a fresh run past the test cache.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaosSchedules' ./internal/faultkit
	$(GO) test -race -count=1 -run 'TestSnapshot' ./internal/runsvc

# Sharded-execution gate under the race detector: the blocker-level
# equivalence/determinism tests, the shard runtime's own suite, the
# service-level remote fan-out test, and the shard-worker chaos schedules
# (worker crash + 5xx failover converging bit-identically).
shard:
	$(GO) test -race -count=1 ./internal/shard
	$(GO) test -race -count=1 -run 'TestSharded' ./internal/blocker
	$(GO) test -race -count=1 -run 'TestManagerRemoteShardExecution|TestHealthzAndMetrics' ./internal/runsvc
	$(GO) test -race -count=1 -v -run 'TestShardWorkerChaos' ./internal/faultkit

# Fuzz smoke: the differential pair-codec target (binary vs JSON round
# trip, plus decoder totality over arbitrary bytes), the K-way merge vs
# its reference, Jaro-Winkler symmetry (the one-matrix Monge-Elkan rests
# on it), and the rank-id set kernels vs the string-merge kernels they
# replaced. `go test -fuzz` accepts one target per invocation, hence one
# run each. Also part of `make verify` and CI.
fuzz:
	$(GO) test -count=1 -run '^$$' -fuzz 'FuzzPairCodec' -fuzztime 10s ./internal/shard
	$(GO) test -count=1 -run '^$$' -fuzz 'FuzzMergePairs' -fuzztime 10s ./internal/shard
	$(GO) test -count=1 -run '^$$' -fuzz 'FuzzJaroWinklerSymmetric' -fuzztime 10s ./internal/similarity
	$(GO) test -count=1 -run '^$$' -fuzz 'FuzzIDKernelsMatchStringOracles' -fuzztime 10s ./internal/similarity

# Whole-run benchmark self-test: the _perfbench module's own suite,
# including TestExactCounts, which pins every batch workload's outcome
# (matches, accounting, F1, umbrella size) to _perfbench/reference.json.
# Any kernel change that moves a result fails here. Part of `make verify`
# and CI.
perfbench-check:
	$(GO) -C _perfbench test

# Hot-path benchmarks -> BENCH_PR8.json (ns/op, allocs, speedup pairs,
# a memory section contrasting the streaming umbrella set with full
# materialization, the sharded-blocking worker sweep, and the shard
# transport section: PR 6 JSON-per-task wire protocol vs the binary
# batched path).
# `bench` takes minutes, gives stable numbers, and enforces the speedup
# floors (edit_similarity, forest_score, forest_train, plus the PR 8
# shard_probe_throughput and shard_wire_bytes transport floors) recorded
# in BENCH_PR8.json, and the blocking fast-path floors
# (jaccard_qgrams_ids, monge_elkan_matrix, verify_cost_order);
# `bench-smoke` runs every benchmark once so CI can prove the harness
# works in seconds, floors not enforced.
bench:
	sh scripts/bench.sh full

bench-smoke:
	sh scripts/bench.sh smoke
