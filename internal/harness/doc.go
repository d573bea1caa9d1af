// Package harness defines the reproduction of every table and figure
// in the paper's evaluation (§V), plus repository-grown studies. Each
// experiment is a function taking a Config and printing the same rows
// or series the paper reports; cmd/experiments and the
// repository-level benchmarks both drive these functions through Run.
//
// Experiments size themselves by Config.Scale: Small targets seconds
// per experiment (tests, benchmarks), Full the largest sizings
// comfortable on one machine. The corpus (corpus.go) maps the paper's
// Table I inputs to seeded synthetic proxies so every run is
// deterministic for a fixed Config.Seed.
//
// Beyond the paper's tables and figures, the "exchange" experiment
// compares the repository's two exchange modes — per-round Allreduce
// settles versus counters and tallies piggybacked on the boundary
// messages — across all three communication paths (partitioning
// updates, analytics value flows, SpMV expand/fold, where the modes
// also differ in transport), reporting exchanged-element volume,
// Allreduce counts, and the invariant edge cut. docs/ARCHITECTURE.md
// explains the engine; README.md has a walkthrough of reading the
// tables.
package harness
