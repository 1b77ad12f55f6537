#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (build cache, temporary files and Go's per-user state all under
# .bench_build/) and hands its arguments to it.
#
#   bash benchmark/run.sh --workload hotdir-create --seed 1 --seconds 8 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal/cluster ]; then
	echo "benchmark/run.sh: no SwitchFS source tree at $PWD (go.mod, internal/ missing)" >&2
	exit 2
fi
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/switchfs-benchmark" ./benchmark
exec "$build/switchfs-benchmark" "$@"
