#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload dlrm-search --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail
root=$PWD
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
