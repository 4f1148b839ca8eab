#!/bin/sh
# Builds the benchmark from source and runs it; this is BENCHMARK.json's
# command. Run from the root of a checkout:
#
#   sh bench/run.sh --workload point_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the compiler's temporary files and the binary under
# .bench_build/, databases, traces and results under bench/out/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/avq-bench" .)
exec "$build/avq-bench" "$@"
