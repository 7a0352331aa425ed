#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it from the repository root. Everything the Go toolchain writes (build
# cache, temp files, its own config and telemetry) and both binaries stay
# inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/iofwd-bench" .
exec "$build/iofwd-bench" "$@"
