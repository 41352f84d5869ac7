#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (--workload W --seed N --seconds S --trace 0|1).
# Build outputs and the Go build cache stay under .bench_build/.
set -eu
cd "$(dirname "$0")/.."
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
