#!/usr/bin/env bash
# Driver entry point: builds the harness from source and runs it, keeping
# everything the Go toolchain writes (build cache, temp files, telemetry)
# inside the checkout under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$bench"
go build -o "$build/wallbench" .
exec "$build/wallbench" "$@"
