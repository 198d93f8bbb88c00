#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): build the benchmark from
# the checkout's sources, then run it. Everything it writes stays inside the
# checkout: build cache and data directories under .bench_build/, span files
# and the report under benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/data"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/rbc-benchmark" .)
exec "$build/rbc-benchmark" -data-root "$build/data" -out-dir "$root/benchmark/out" "$@"
