#!/usr/bin/env bash
# Builds loopbench from the checkout's sources and runs one workload:
#
#   bash loopbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all stay under .bench_build in the checkout, and the
# build never touches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/loopbench" ./loopbench
exec "$build/loopbench" "$@"
