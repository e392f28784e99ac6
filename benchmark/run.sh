#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build writes (Go build cache, temporary files, the binary) stays under
# .bench_build/ in that checkout; reports and span files go to benchmark/out/.
#
#   bash benchmark/run.sh --workload bare-min --seed 1 --seconds 24 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
cd "$root"
go build -o "$build/lvrm-benchmark" ./benchmark
exec "$build/lvrm-benchmark" -out "$here/out" "$@"
