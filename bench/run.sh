#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write (Go build cache,
# toolchain state, binary, WAL and page files) stays under .bench_build at
# the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/data" "$build/tmp"

(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOPROXY=off
	go build -o "$build/bench" .
)

exec "$build/bench" -dir "$build/data" "$@"
