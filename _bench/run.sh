#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash _bench/run.sh --workload flow_routed --seed 1 --seconds 15 --trace 0
#
# Every build and scratch file goes under .bench_build/ in the working
# directory; nothing outside it is read or written except the sources.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/_bench" && go build -o "$build/replbench" .) >&2
exec "$build/replbench" "$@"
