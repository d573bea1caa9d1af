#!/usr/bin/env bash
# Builds once and runs all four workloads, traced pass included. The
# results file carries the go version, nproc, GOMAXPROCS, commit and
# seed it was measured with. Extra arguments go to the benchmark, e.g.
#   benchmark/run.sh -seed 7
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" -out "$out/results.json" -trace-out "$out/trace.json" "$@"
