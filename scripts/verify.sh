#!/bin/sh
# Verify path: build, vet, full test suite, then a race-detector pass over
# the packages with real concurrency (the parallel experiment scheduler, the
# DES kernel it drives, the concurrent engine, and the WAL whose commit
# flush runs beside other sessions' appends).
#
# Usage: ./scripts/verify.sh [-short]
#   -short   forwarded to go test; the experiment tests then skip their
#            shared sweep of every figure (the fig5.2 golden renders and
#            the structure tests' own few figures still run).
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
if [ "$fields" -gt 32 ]; then
    echo "verify.sh: engine.Config has $fields exported fields, ceiling is 32" >&2
    exit 1
fi
# One set of counters: each layer's Stats is its instrumentation. The
# recorder side channel that counted the same events twice stays gone.
if grep -rnE 'SetRecorder|obs\.Recorder' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./bench/'; then
    echo "verify.sh: non-test Go outside bench/ names SetRecorder or obs.Recorder" >&2
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
# The race pass runs 6-9x slower than native. On two vCPUs
# `go test -race -timeout 30m ./internal/engine` takes 149-159 s (207 s
# before its tests cloned their worlds from one fixture table) and
# internal/experiment ~40 s alone (~66 s beside engine; 1m45 before its two
# figure sweeps became one shared sweep). A slower
# or single-CPU host can still reach go test's default 10-minute
# per-package timeout, so give it an explicit budget.
run_tests -race -timeout 30m "$@" ./internal/experiment/... ./internal/sim/... ./internal/oracle/... ./internal/engine/... ./internal/lock/... ./internal/buffer/... ./internal/storage/...
# Bench smoke: every Go benchmark must run once without failing
# (measurements come from bench/run.sh, the harness BENCHMARK.json declares).
go test -run '^$' -bench . -benchtime 1x ./...
# bench/ is its own module (BENCHMARK.json's harness): ./... never compiles
# it, yet it imports the engine's constructors and result types.
(cd bench && go vet . && go test -count=1 .)
