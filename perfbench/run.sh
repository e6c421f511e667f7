#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload quantify_large --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run
# write stays under .bench_build/ (Go build cache, binary, spill temp
# files, trace files).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
