#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments are passed to the benchmark, for example
#
#   bash perfbench/run.sh --workload loaded-10k --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay
# under .bench_build/ and .bench_out/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
