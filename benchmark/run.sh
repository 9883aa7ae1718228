#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it with the given arguments. The Go build cache and temporary files
# are kept inside .bench_build too, so nothing is written outside the
# checkout. Fails (no output on stdout) when the simulator's sources are
# not next to this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/aprilbench" . >&2
exec "$build/aprilbench" "$@"
