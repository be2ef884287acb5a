#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's build directory and
# runs it from the repo root. Everything the build writes (Go's build cache
# and temporary files included) stays inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/topick-benchmark" .)
cd "$root"
exec "$build/topick-benchmark" "$@"
