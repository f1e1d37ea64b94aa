#!/usr/bin/env bash
# Builds the programs under test and the benchmark from source into
# .bench_build/ at the root of the checkout, then runs the benchmark there.
# Everything the Go toolchain writes (build cache included) stays inside
# .bench_build/, so a run touches nothing outside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=$root/.bench_build
mkdir -p "$out/bin"
export GOCACHE=$out/go-cache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/" ./cmd/corpusgen ./cmd/probase-build ./cmd/probase-serve
go build -C perf -o "$out/bin/perf" .
exec "$out/bin/perf" "$@"
