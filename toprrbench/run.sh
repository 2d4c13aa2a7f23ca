#!/usr/bin/env bash
# Builds toprrd and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the root of
# the repository:
#
#   bash toprrbench/run.sh --workload narrow-scan --seed 1 --seconds 20 --trace 0
#
# Build outputs, Go caches, data directories, records and span dumps go
# to .bench_build/ under the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -o "$out/toprrd" ./cmd/toprrd
(cd toprrbench && go build -o "$out/toprrbench" .)
exec "$out/toprrbench" -toprrd "$out/toprrd" -work "$out" "$@"
