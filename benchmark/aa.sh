#!/usr/bin/env bash
# A/A check: runs the suite twice on one build and compares the two
# results files with the benchmark's own bounds. Exits non-zero when
# the same code "regresses" against itself.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
go build -o "$out/benchmark" ./benchmark
"$out/benchmark" -out "$out/aa_a.json" "$@"
"$out/benchmark" -out "$out/aa_b.json" "$@"
exec "$out/benchmark" -compare "$out/aa_a.json" "$out/aa_b.json"
