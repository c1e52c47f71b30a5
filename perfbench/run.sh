#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload life-cold --seed 1 --seconds 20 --trace 0
#
# Build products (Go build cache, binary, trace reports) stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
