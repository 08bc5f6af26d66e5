#!/bin/sh
# Builds the whole-run benchmark from the source tree in the current
# directory and runs it with the given arguments. Call it from the
# repository root:
#
#   sh _perfbench/run.sh --workload citations --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own that imports the repository
# through a replace directive, so a tree without the repository's go.mod
# fails to build and the script exits nonzero. Everything the build writes
# (Go build cache, temporary files, the binary) stays under .bench_build/.
set -e
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
go -C _perfbench build -buildvcs=false -o "$out/perfbench" .
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null) || commit=unknown
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
