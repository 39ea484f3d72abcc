#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the
# build writes (binary, Go build cache, temporary files) stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$root/.bench_build/orion-benchmark" .
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || true)
export BENCH_COMMIT
exec "$root/.bench_build/orion-benchmark" "$@"
