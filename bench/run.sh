#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Everything
# the Go toolchain writes (build cache, temporary files, binaries) stays
# under .bench_build/ in the checkout; arguments pass through to the bench
# binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME
cd "$root"
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
