#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload batch-tall --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache stay under .bench_build in the
# checkout; nothing is fetched (the module has no dependencies beyond the
# repository itself).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" --scratch "$build" "$@"
