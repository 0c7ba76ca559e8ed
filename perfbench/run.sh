#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload small --seed 1 --seconds 20 --trace 0
#
# Build cache, binary and artifacts all stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/artifacts" "$@"
