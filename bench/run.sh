#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it; every argument goes
# to the harness. Nothing is written outside the checkout: the Go build
# cache and the binaries live under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bin/bench" .
exec .bench_build/bin/bench "$@"
