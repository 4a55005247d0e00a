#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tpch --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, which must be the root of the repository.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
