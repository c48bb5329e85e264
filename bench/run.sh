#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): builds
# flexbench from source inside the checkout and runs it with the driver's
# flags. Everything the Go toolchain writes — build cache, temporaries, the
# binary — stays under .bench_build/ in the checkout. By hand, `go run
# ./bench` does the same with the toolchain's usual cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/flexbench" ./bench
exec "$build/flexbench" "$@"
