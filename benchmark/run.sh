#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it, both
# inside the checkout this is started from (its root). Build products and the
# Go build cache go under .bench_build/, run state under benchmark/out/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/eil-benchmark" ./benchmark
exec "$build/eil-benchmark" "$@"
