#!/bin/sh
# Performance benchmark harness. Runs the hot-path micro-benchmarks
# (similarity cosine, feature vectorization, blocking scan + similarity-join
# index, forest training) plus the whole-pipeline benchmarks in the repo
# root, and writes the results to a machine-readable JSON file with
# legacy-vs-optimized speedup pairs.
#
# Usage:
#   scripts/bench.sh              # full mode (stable numbers, minutes)
#   scripts/bench.sh smoke        # -benchtime=1x smoke mode for CI (seconds)
#   BENCH_OUT=out.json scripts/bench.sh
#
# In full mode the run also enforces speedup floors (see check_floor at
# the bottom): recorded full-mode values minus a noise tolerance, so a
# regression in the scoring-core hot paths, the blocking kernels or the
# shard transport fails the bench job instead of silently shipping.
#
# The output (default BENCH_PR8.json) has these sections:
#   mode        "smoke" or "full" — smoke numbers are single-iteration and
#               only prove the harness runs; compare speedups in full mode
#   gomaxprocs/num_cpu  the parallelism the run actually had. Parallel-vs-
#               serial speedups (forest_train, blocking_sharded) are
#               meaningless on a 1-core box, so consumers must read them
#               alongside these fields.
#   benchmarks  one entry per benchmark: ns/op, B/op, allocs/op, custom
#               metrics such as pairs/op; "cpus" when run under -cpu
#   speedups    baseline/optimized pairs with the ns/op ratio (at the
#               highest -cpu value when a benchmark ran under several)
#   memory      baseline/optimized pairs compared on bytes/op — the
#               streaming umbrella set is a peak-memory fix, not a CPU one
#   blocking_sharded  the K=4 sharded strategy at 1/2/4/8 coordinator
#               workers vs the K=1 single index: ns/op speedup plus the
#               per-shard peak index bytes (the scale-out memory story —
#               per-shard bytes shrink ~K-fold regardless of CPU count)
#   shard_transport  the PR 6 JSON-per-task wire protocol vs the binary
#               batched path over loopback HTTP: probe throughput speedup
#               (and the codec-only single-probe row), plus wire bytes per
#               task with the reduction ratio. CPU-independent — both
#               clients run serially against the same worker.
set -eu

cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="${BENCH_OUT:-BENCH_PR8.json}"
NCPU="$(nproc 2>/dev/null || echo 1)"

case "$MODE" in
smoke) BENCHTIME="-benchtime=1x" ;;
full) BENCHTIME="-benchtime=1s" ;;
*)
	echo "usage: scripts/bench.sh [smoke|full]" >&2
	exit 2
	;;
esac

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

run() { # run <package> <bench regexp> [extra go-test flags...]
	pkg="$1"
	re="$2"
	shift 2
	echo "== $pkg ($re)" >&2
	go test -run '^$' -bench "$re" -benchmem $BENCHTIME "$@" "$pkg" | tee -a "$RAW" >&2
}

run ./internal/similarity/ 'BenchmarkCosine(String|Profile)$|BenchmarkEditSim(String|StringMyers|Profile)$|BenchmarkJaccardQGrams(Strings|IDs)$|BenchmarkMongeElkan(TwoPass|Matrix)$'
run ./internal/feature/ 'BenchmarkVectors(String)?$|BenchmarkNewExtractor$'
run ./internal/blocker/ 'BenchmarkApplyRules(String|Indexed|IndexedSelective)?$|BenchmarkUmbrella(Materialized|Streaming)$'
# Rule verification over the citations workload's index candidates: the
# rules in selection order vs the shipping cost-ordered verifier.
run ./internal/blocker/ 'BenchmarkVerify(GivenOrder|CostOrder)$'
# Sharded blocking: K=1 single index vs K=4 under a 1/2/4/8-worker sweep.
# Like forest_train, the worker-sweep speedups only mean parallelism on a
# multi-core box; the per-shard footprint column is CPU-independent.
run ./internal/blocker/ 'BenchmarkShardedBlocking(K1|W1|W2|W4|W8)$'
# Shard transport: the PR 6 fat-JSON-per-task protocol vs the lean binary
# batched path, both against a real (loopback) shard-worker HTTP server.
run ./internal/shard/ 'BenchmarkTransport(JSONLegacy|BinarySingle|BinaryBatched)$'
# Forest training is parallel across trees: run serial-vs-parallel at 1 CPU
# and at every CPU, so the forest_train speedup is read at real parallelism
# (PR2 recorded 0.98x here — an artifact of benchmarking on a 1-core box).
# On a 1-core box the two -cpu values would coincide; run once.
if [ "$NCPU" -gt 1 ]; then CPUSPEC="1,$NCPU"; else CPUSPEC="1"; fi
run ./internal/forest/ 'BenchmarkTrain(Serial)?$|BenchmarkMeanConfidence$|BenchmarkScore(PerVector|Batched)$' -cpu "$CPUSPEC"
run ./internal/active/ 'BenchmarkSelectBatch$'
run . 'BenchmarkFeatureVector$|BenchmarkForestTrain$|BenchmarkPipelineCitations$'

# Turn `go test -bench` output into JSON. Benchmark lines look like:
#   BenchmarkName-8  120  9876 ns/op  12 B/op  3 allocs/op  2000 pairs/op
# The -8 suffix is GOMAXPROCS and is absent on single-proc runs; under
# -cpu=1,N the same benchmark appears once per value, so the suffix is kept
# as a "cpus" field and per-name lookups retain the LAST (highest-cpu) run.
# Package lines ("pkg: ...") name the package the following benches live in.
awk -v mode="$MODE" -v ncpu="$NCPU" -v gmp="${GOMAXPROCS:-$NCPU}" '
BEGIN { n = 0 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
	name = $1
	cpus = ""
	if (match(name, /-[0-9]+$/)) {
		cpus = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	ns = ""; bytes = ""; allocs = ""; extra = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		else if ($(i+1) == "B/op") bytes = $i
		else if ($(i+1) == "allocs/op") allocs = $i
		else if ($(i+1) !~ /^[0-9.]+$/) {
			if ($(i+1) == "shard-peak-B") shardof[name] = $i
			if ($(i+1) == "wire-B/task") wireof[name] = $i
			if (extra != "") extra = extra ","
			extra = extra sprintf("\"%s\":%s", $(i+1), $i)
		}
	}
	n++
	line = sprintf("    {\"name\":\"%s\",\"package\":\"%s\",\"ns_per_op\":%s", name, pkg, ns)
	if (cpus != "") line = line sprintf(",\"cpus\":%s", cpus)
	if (bytes != "") line = line sprintf(",\"bytes_per_op\":%s", bytes)
	if (allocs != "") line = line sprintf(",\"allocs_per_op\":%s", allocs)
	if (extra != "") line = line sprintf(",\"metrics\":{%s}", extra)
	rows[n] = line "}"
	nsof[name] = ns
	bytesof[name] = bytes
}
function speedup(label, base, opt,   s) {
	if (nsof[base] == "" || nsof[opt] == "" || nsof[opt] + 0 == 0) return ""
	s = nsof[base] / nsof[opt]
	return sprintf("    {\"name\":\"%s\",\"baseline\":\"%s\",\"optimized\":\"%s\",\"speedup\":%.2f}", \
		label, base, opt, s)
}
function shardrow(workers, base, opt,   s, line) {
	if (nsof[base] == "" || nsof[opt] == "" || nsof[opt] + 0 == 0) return ""
	s = nsof[base] / nsof[opt]
	line = sprintf("    {\"name\":\"sharded_w%d\",\"workers\":%d,\"baseline\":\"%s\",\"bench\":\"%s\",\"speedup\":%.2f", \
		workers, workers, base, opt, s)
	if (shardof[opt] != "") line = line sprintf(",\"per_shard_peak_bytes\":%s", shardof[opt])
	if (shardof[base] != "") line = line sprintf(",\"baseline_index_bytes\":%s", shardof[base])
	return line "}"
}
function wirecut(label, base, opt,   s) {
	if (wireof[base] == "" || wireof[opt] == "" || wireof[opt] + 0 == 0) return ""
	s = wireof[base] / wireof[opt]
	return sprintf("    {\"name\":\"%s\",\"baseline\":\"%s\",\"optimized\":\"%s\",\"wire_bytes_baseline\":%s,\"wire_bytes_optimized\":%s,\"reduction\":%.2f}", \
		label, base, opt, wireof[base], wireof[opt], s)
}
function memcut(label, base, opt,   s) {
	if (bytesof[base] == "" || bytesof[opt] == "" || bytesof[opt] + 0 == 0) return ""
	s = bytesof[base] / bytesof[opt]
	return sprintf("    {\"name\":\"%s\",\"baseline\":\"%s\",\"optimized\":\"%s\",\"bytes_baseline\":%s,\"bytes_optimized\":%s,\"reduction\":%.2f}", \
		label, base, opt, bytesof[base], bytesof[opt], s)
}
END {
	printf "{\n  \"mode\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"num_cpu\": %s,\n  \"benchmarks\": [\n", mode, gmp, ncpu
	for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
	printf "  ],\n  \"speedups\": [\n"
	m = 0
	if ((s = speedup("tfidf_cosine", "BenchmarkCosineString", "BenchmarkCosineProfile")) != "") sp[++m] = s
	if ((s = speedup("edit_similarity", "BenchmarkEditSimString", "BenchmarkEditSimProfile")) != "") sp[++m] = s
	if ((s = speedup("edit_similarity_string", "BenchmarkEditSimString", "BenchmarkEditSimStringMyers")) != "") sp[++m] = s
	if ((s = speedup("extractor_vectors", "BenchmarkVectorsString", "BenchmarkVectors")) != "") sp[++m] = s
	if ((s = speedup("blocking_scan", "BenchmarkApplyRulesString", "BenchmarkApplyRules")) != "") sp[++m] = s
	if ((s = speedup("blocking_indexed", "BenchmarkApplyRules", "BenchmarkApplyRulesIndexedSelective")) != "") sp[++m] = s
	if ((s = speedup("blocking_indexed_loose", "BenchmarkApplyRules", "BenchmarkApplyRulesIndexed")) != "") sp[++m] = s
	if ((s = speedup("forest_train", "BenchmarkTrainSerial", "BenchmarkTrain")) != "") sp[++m] = s
	if ((s = speedup("forest_score", "BenchmarkScorePerVector", "BenchmarkScoreBatched")) != "") sp[++m] = s
	if ((s = speedup("jaccard_qgrams_ids", "BenchmarkJaccardQGramsStrings", "BenchmarkJaccardQGramsIDs")) != "") sp[++m] = s
	if ((s = speedup("monge_elkan_matrix", "BenchmarkMongeElkanTwoPass", "BenchmarkMongeElkanMatrix")) != "") sp[++m] = s
	if ((s = speedup("verify_cost_order", "BenchmarkVerifyGivenOrder", "BenchmarkVerifyCostOrder")) != "") sp[++m] = s
	for (i = 1; i <= m; i++) printf "%s%s\n", sp[i], (i < m ? "," : "")
	printf "  ],\n  \"memory\": [\n"
	m = 0
	if ((s = memcut("umbrella_streaming", "BenchmarkUmbrellaMaterialized", "BenchmarkUmbrellaStreaming")) != "") sp[++m] = s
	for (i = 1; i <= m; i++) printf "%s%s\n", sp[i], (i < m ? "," : "")
	printf "  ],\n  \"blocking_sharded\": [\n"
	m = 0
	if ((s = shardrow(1, "BenchmarkShardedBlockingK1", "BenchmarkShardedBlockingW1")) != "") sp[++m] = s
	if ((s = shardrow(2, "BenchmarkShardedBlockingK1", "BenchmarkShardedBlockingW2")) != "") sp[++m] = s
	if ((s = shardrow(4, "BenchmarkShardedBlockingK1", "BenchmarkShardedBlockingW4")) != "") sp[++m] = s
	if ((s = shardrow(8, "BenchmarkShardedBlockingK1", "BenchmarkShardedBlockingW8")) != "") sp[++m] = s
	for (i = 1; i <= m; i++) printf "%s%s\n", sp[i], (i < m ? "," : "")
	printf "  ],\n  \"shard_transport\": [\n"
	m = 0
	if ((s = speedup("shard_probe_throughput", "BenchmarkTransportJSONLegacy", "BenchmarkTransportBinaryBatched")) != "") sp[++m] = s
	if ((s = speedup("shard_probe_codec_only", "BenchmarkTransportJSONLegacy", "BenchmarkTransportBinarySingle")) != "") sp[++m] = s
	if ((s = wirecut("shard_wire_bytes", "BenchmarkTransportJSONLegacy", "BenchmarkTransportBinaryBatched")) != "") sp[++m] = s
	for (i = 1; i <= m; i++) printf "%s%s\n", sp[i], (i < m ? "," : "")
	printf "  ]\n}\n"
}
' "$RAW" >"$OUT"

echo "wrote $OUT" >&2

# Speedup floors, full mode only: each floor is the recorded BENCH_PR8
# full-mode value minus a generous noise tolerance (the bench box shows
# ±15-30% run-to-run variance from virtualization steal time), so only a
# real regression trips it, not a slow run. forest_train's floor sits at
# ~1x because the recording box had one CPU — the deterministic parallel
# path runs inline there (the PR 6-documented caveat); read the speedup
# alongside num_cpu. smoke mode runs one iteration per benchmark and
# proves only that the harness runs, so floors are not enforced there.
check_floor() { # check_floor <row name> <floor> [field=speedup]
	field="${3:-speedup}"
	v="$(awk -F"\"$field\":" -v n="$1" '$0 ~ "\"name\":\"" n "\"" { split($2, a, /[,}]/); print a[1]; exit }' "$OUT")"
	if [ -z "$v" ]; then
		echo "bench floor: $field \"$1\" missing from $OUT" >&2
		FLOOR_FAIL=1
		return
	fi
	if awk -v v="$v" -v f="$2" 'BEGIN { exit !(v + 0 < f + 0) }'; then
		echo "bench floor: $1 $field ${v}x is below floor ${2}x" >&2
		FLOOR_FAIL=1
	else
		echo "bench floor: $1 ${v}x >= ${2}x ok" >&2
	fi
}

if [ "$MODE" = "full" ]; then
	FLOOR_FAIL=0
	check_floor edit_similarity 10.0
	check_floor forest_train 0.80
	check_floor forest_score 1.40
	# The PR 8 acceptance floors: the batched binary transport must move at
	# least 5x fewer wire bytes per task and finish probes at least 2x
	# faster than the PR 6 JSON-per-task protocol on loopback.
	check_floor shard_probe_throughput 2.0
	check_floor shard_wire_bytes 5.0 reduction
	# Blocking fast-path floors, about half the recorded full-mode ratios
	# (4.90x, 2.14x, 2.33x on a 2-vCPU VM): rank-id q-gram Jaccard vs the
	# string merge, one-matrix vs two-pass Monge-Elkan, and cost-ordered
	# vs given-order rule verification over the citations workload's
	# index candidates.
	check_floor jaccard_qgrams_ids 2.2
	check_floor monge_elkan_matrix 1.1
	check_floor verify_cost_order 1.3
	if [ "$FLOOR_FAIL" -ne 0 ]; then
		echo "bench floors violated; see above" >&2
		exit 1
	fi
fi
