#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it with the driver's arguments. Everything the Go
# toolchain writes (build cache, temporary files, the binary) stays under
# .bench_build/ in the checkout. Outside a checkout of the module there is
# nothing to build, and this exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -o "$build/expresso-benchmark" ./benchmark
exec "$build/expresso-benchmark" "$@"
