#!/usr/bin/env bash
# Builds the benchmark into the checkout's own .bench_build directory and
# runs it with the given arguments. Everything the build and the run write
# (Go build cache, temporary journal directories, the binary) stays under
# .bench_build, so a run touches nothing outside the checkout.
#
#   bash bench/run.sh --workload chain8_inmem --seed 1 --seconds 18 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" TMPDIR="$root/.bench_build/tmp"
go build -C bench -o "$root/.bench_build/selfserv-bench" .
exec "$root/.bench_build/selfserv-bench" "$@"
