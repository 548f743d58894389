#!/bin/sh
# Verify path: build, vet, full test suite, then a race-detector pass over
# the packages with real concurrency (the parallel experiment scheduler, the
# DES kernel it drives, the concurrent engine, and the WAL whose commit
# flush runs beside other sessions' appends).
#
# Usage: ./scripts/verify.sh [-short]
#   -short   forwarded to go test; skips the slow full-figure sweeps.
set -eux

go build ./...
go vet ./...
# Formatting is checked, not applied: any file gofmt would rewrite fails.
test -z "$(gofmt -l .)"
# staticcheck runs when installed (CI installs it; the local toolchain may
# not have it, and the verify path must not require network access).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "verify.sh: staticcheck not installed; skipping (CI runs it)" >&2
fi
# engine.Config's exported field count only moves down on purpose: every
# independent option multiplies what goldens, digests and bench/ must cover.
fields=$(awk '/^type Config struct {/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z][A-Za-z0-9]* /{n++} END{print n+0}' internal/engine/config.go)
if [ "$fields" -gt 35 ]; then
    echo "verify.sh: engine.Config has $fields exported fields, ceiling is 35" >&2
    exit 1
fi
# Unchecked-error pass: a dropped Close/Sync/Write error on the durability
# path is a silent data-loss bug (see scripts/errscan).
go run ./scripts/errscan
# run_tests wraps go test: -count=1 defeats the test cache, and a "no tests
# to run" warning fails the build — a typo'd -run pattern matches nothing,
# exits 0, and would otherwise masquerade as green.
run_tests() {
    out=$(go test -count=1 "$@" 2>&1) || { printf '%s\n' "$out"; exit 1; }
    printf '%s\n' "$out"
    if printf '%s\n' "$out" | grep -q 'no tests to run'; then
        echo "verify.sh: go test $* matched no tests" >&2
        exit 1
    fi
}

run_tests "$@" ./...
# The race pass runs ~10x slower than native; on a single-CPU container the
# experiment suite alone exceeds go test's default 10-minute per-package
# timeout, so give it an explicit budget.
run_tests -race -timeout 30m "$@" ./internal/experiment/... ./internal/sim/... ./internal/oracle/... ./internal/engine/... ./internal/lock/... ./internal/buffer/... ./internal/storage/...
# Bench smoke: every Go benchmark must run once without failing
# (measurements come from bench/run.sh, the harness BENCHMARK.json declares).
go test -run '^$' -bench . -benchtime 1x ./...
# bench/ is its own module (BENCHMARK.json's harness): ./... never compiles
# it, yet it imports the engine's constructors and result types.
(cd bench && go vet . && go test -count=1 .)
