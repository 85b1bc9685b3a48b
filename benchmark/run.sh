#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload echo-substrate --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
