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
// Two repository-grown studies supplement the paper's views:
// convergence (the per-iteration balance trajectory) and ablation (the
// design choices XtraPuLP adds to prior work). The sync-versus-async
// exchange comparison is not an experiment: the end-to-end benchmark
// (benchmark/) reports it as per-layer rows of its rmat17_proc_async
// and rmat17_proc_sync workloads.
package harness
