#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache, temporaries and the toolchain's own counter
# files included, so nothing is written outside the checkout) and runs it
# with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/felaperf" .
exec "$build/felaperf" "$@"
