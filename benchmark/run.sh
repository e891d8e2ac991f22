#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the go command writes (build
# cache, temporaries, telemetry counters) is kept inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go build -C benchmark -o "$build/dapes-benchmark" .
exec "$build/dapes-benchmark" "$@"
