#!/bin/sh
# Full verification: format gate, vet, corlint, build, and the complete
# test suite under the race detector. Tier-1 (go build && go test) is a
# subset; this is the bar for changes touching concurrency — the run
# service executes many engine pipelines in parallel.
set -eux

cd "$(dirname "$0")/.."

# Formatting is a hard gate: gofmt -l prints offending files, so any
# output fails the run with the list in the log.
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: unformatted files:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

go vet ./...
go run ./cmd/corlint ./...
go build ./...

# Allocation gate: compiler escape/inlining diagnostics for the hot-path
# packages vs the checked-in baseline. Runs right after the build so it
# rides the warm build cache (the compiler replays -m diagnostics on
# cache hits).
go run ./cmd/corlint -alloc

# Chaos smoke: one transport schedule and one kill-point schedule run
# first, without -race, so a resilience regression surfaces in seconds
# instead of at the end of the long race run. The race run that follows
# covers the full schedule matrix (chaos suite included).
go test -count=1 -run 'TestChaosSchedules/(5xx-burst|kill-points|snap-kill-points)' ./internal/faultkit

# Snapshot/compaction smoke: the corruption fallback ladder and the
# bounded-replay cost bound, without -race for fast signal.
go test -count=1 -run 'TestSnapshotCorruptionFallback|TestSnapshotBoundedReplay' ./internal/runsvc

# Sharded smoke: the bit-identical equivalence sweep (K x GOMAXPROCS) and
# one shard-worker failover schedule, again without -race for fast signal.
go test -count=1 -run 'TestShardedBlockingEquivalence|TestShardedMergeDeterminism' ./internal/blocker
go test -count=1 -run 'TestShardWorkerChaos/5xx-failover' ./internal/faultkit

go test -race ./...

# Whole-run benchmark self-test: TestExactCounts pins every batch
# workload's outcome to _perfbench/reference.json, so a kernel change that
# moves a single match fails here.
make perfbench-check

# Fuzz smoke: a short differential run of the pair codec (binary vs JSON
# round trip + decoder totality) and the K-way merge vs its reference, so
# a codec change that breaks canonicality or totality fails here in
# seconds instead of surfacing as a torn-stream mystery; then the
# Jaro-Winkler symmetry the one-matrix Monge-Elkan relies on, and the
# rank-id set kernels vs the string-merge kernels they replaced.
go test -count=1 -run '^$' -fuzz 'FuzzPairCodec' -fuzztime 5s ./internal/shard
go test -count=1 -run '^$' -fuzz 'FuzzMergePairs' -fuzztime 5s ./internal/shard
go test -count=1 -run '^$' -fuzz 'FuzzJaroWinklerSymmetric' -fuzztime 5s ./internal/similarity
go test -count=1 -run '^$' -fuzz 'FuzzIDKernelsMatchStringOracles' -fuzztime 5s ./internal/similarity

# Bench-smoke sanity: every benchmark must still run (one iteration) and
# the harness must emit parseable JSON. Numbers are not checked — smoke
# mode only proves the measurement path works. Writes to a temp file so a
# committed BENCH_PR*.json with real full-mode numbers is never clobbered.
BENCH_OUT="$(mktemp)"
trap 'rm -f "$BENCH_OUT"' EXIT
BENCH_OUT="$BENCH_OUT" sh scripts/bench.sh smoke
go run ./cmd/corlint -jsoncheck "$BENCH_OUT" ||
	{ echo "bench-smoke: invalid JSON" >&2; exit 1; }
