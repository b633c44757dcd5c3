#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash benchmark/run.sh --workload exp1-sweep --seed 2006 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build state (Go build cache, temp
# files, the binary) and the benchmark's on-disk stores stay under
# .bench_build/ there; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchmark" build -o "$build/tupelo-benchmark" .
exec "$build/tupelo-benchmark" "$@"
