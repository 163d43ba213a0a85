#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (which in turn
# builds usaasd) and runs it from the checkout root. Every file the build and
# the run write, Go's caches included, stays under <root>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
