#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it from the repository root with the arguments given. The
# binary, the Go build and module caches and temporary files all stay
# under .bench_build in the checkout; nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
