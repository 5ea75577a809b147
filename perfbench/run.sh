#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload network --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache go to .bench_build/ in the
# current directory, so nothing is written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
