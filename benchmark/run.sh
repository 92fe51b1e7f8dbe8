#!/usr/bin/env bash
# The command of BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the benchmark (its own module, in this directory) and, through
# it, ./cmd/ngfix-server, then runs one workload. Everything the build
# and the run write — Go's build cache and temp files, both binaries, the
# corpus files and snapshot directories — stays under .bench_build/ in
# the checkout; results, traces and server logs go to benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/ngfix-benchmark" .)
cd "$root"
exec "$build/ngfix-benchmark" -build-dir "$build" "$@"
