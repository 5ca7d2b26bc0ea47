#!/usr/bin/env bash
# Builds spand and spanload from this checkout and runs the benchmark.
#
#   bench/run.sh                                   every workload, end to end and traced
#   bench/run.sh --workload doc_edit --seed 7 --seconds 12 --trace 0
#
# Everything built or written stays inside the checkout: binaries and
# the Go build cache under .bench_build/, logs and traces under
# bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"
# The go command keeps its cache, temporary files, module path and
# telemetry counters (under the user's configuration directory) here.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# With telemetry in its default mode the go command starts a detached
# child that outlives it; this is what `go telemetry off` writes.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root/bench"
go build -o "$build/bin/spand" spanners/cmd/spand
go build -o "$build/bin/spanload" ./spanload
cd "$root"
SPANLOAD_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SPANLOAD_COMMIT
exec "$build/bin/spanload" -spand "$build/bin/spand" -out "$root/bench/out" "$@"
