#!/usr/bin/env bash
# Builds ./cmd/upa-server and the benchmark from source into .bench_build/,
# then runs the benchmark with the given arguments from the root of the
# checkout. The Go build cache and the go command's own configuration live in
# .bench_build/ too, so nothing is written outside the checkout.
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
started=$(date +%s.%N)
go build -o "$build/upa-server" ./cmd/upa-server
go -C benchmark build -ldflags "-X main.commit=$commit" -o "$build/upa-benchmark" .
echo "benchmark: go build took $(echo "$(date +%s.%N) $started" | awk '{printf "%.1f", $1 - $2}')s (not part of any metric)" >&2
exec "$build/upa-benchmark" -server "$build/upa-server" "$@"
