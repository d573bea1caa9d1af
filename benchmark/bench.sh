#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments given, keeping every file the build
# writes under .bench_build/ in the checkout. A warm build takes well
# under a second, so every run goes through it.
#
#   bash benchmark/bench.sh --workload rmat17_proc_async --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program under test there is nothing to build or measure;
# say so before any other process is started.
if [ ! -f go.mod ]; then
	echo "bench.sh: no go.mod in $PWD: the benchmark needs the repository it measures" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command's own config and counters live under the user config
# directory; keep that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command starts a detached
# telemetry child that outlives it. Mode "off" stops that: every
# process this script starts has ended when it returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
# The checkout need not be a git repository, and no toolchain or module
# may be fetched.
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
