#!/usr/bin/env bash
# Builds the benchmark and the rankd daemon from this checkout's source
# and runs the benchmark. Everything the build and the run write —
# Go's build cache included — stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/bin/bench" .)
(cd "$root" && go build -o "$build/bin/rankd" ./cmd/rankd)
export BENCH_RANKD="$build/bin/rankd" BENCH_SCRATCH="$build/tmp"
exec "$build/bin/bench" "$@"
