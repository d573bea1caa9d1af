package main

import (
	"fmt"

	"repro"
)

// Fixed pipeline shape shared by every workload: the timed partition
// is 16-way, and analytics and SpMV distribute by node = part*ranks/16,
// so partition quality feeds downstream time.
const (
	numParts  = 16
	pipeDepth = 8
	hcSources = 8
	spmvIters = 100
	// maxVertImbalance is the partitioner's vertex balance constraint;
	// a partition above it (past integer rounding) is a failed check.
	maxVertImbalance = 1.10
)

// workload is one named pipeline configuration. The box has two cores,
// so no workload runs more than 2 ranks x 1 thread or 1 rank x 2
// threads: more ranks than cores would time the Go scheduler.
type workload struct {
	name string
	why  string
	// mesh selects Grid3D instead of R-MAT.
	mesh bool
	// ranks is the world size of every stage.
	ranks int
	// spmvThreads is ThreadsPerRank for SpMV and the thread count of
	// the par probes. The partition stage always runs one thread per
	// rank: the threaded partitioner is not repeatable run to run
	// (ROADMAP P0), so its quality metrics would not be either.
	// Analytics runs one thread per rank too, because at two threads on
	// this box's two shared vCPUs it cannot be measured: single passes
	// over mesh64 fall into two modes, 3.1 s and 5-7 s (one thread takes
	// 3.1 s), and ten runs of two to four passes each spread 28-39 %
	// between their quartiles, above any bound a regression gate could
	// use. SpMV at two threads repeats within 5 %.
	spmvThreads int
	// socket forms one in-process Unix-socket world in set-up and runs
	// every stage over it; otherwise each stage call gets a fresh
	// in-process world, as the facade's one-call entry points do.
	socket bool
	// async selects the delta exchange engine in all three stages.
	async bool
}

// workloads is the benchmark's closed set, in reporting order.
var workloads = []workload{
	{
		name:  "rmat17_proc_async",
		why:   "recommended config on the paper's skewed class: core sweeps, DeltaExchanger and mpi p2p carry it; wire and sockets bypassed",
		ranks: 2, spmvThreads: 1, async: true,
	},
	{
		name:  "rmat17_proc_sync",
		why:   "same graph, bulk-synchronous: Alltoallv plus per-iteration Allreduce instead of p2p; DeltaExchanger idle; control for p2p work",
		ranks: 2, spmvThreads: 1,
	},
	{
		name:  "rmat17_socket_async",
		why:   "same as proc_async over an in-process Unix-socket world: wire codec and socket reader/writer goroutines carry every message",
		ranks: 2, spmvThreads: 1, async: true, socket: true,
	},
	{
		name:  "mesh64_threads",
		why:   "regular 64^3 mesh on 1 rank, SpMV at 2 threads: sweeps do the work, no rank boundary, so mpi, exchange and wire are bypassed",
		mesh:  true,
		ranks: 1, spmvThreads: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size scales the generated inputs; only the smoke test departs from
// fullSize.
type size struct {
	rmatScale int
	meshSide  int64
}

var (
	fullSize  = size{rmatScale: 17, meshSide: 64}
	smokeSize = size{rmatScale: 10, meshSide: 16}
)

// generator builds the workload's input from the seed. The mesh is a
// fixed regular graph; there the seed reaches only the partitioner.
func (w workload) generator(sz size, seed uint64) *repro.Generator {
	if w.mesh {
		return repro.Mesh3D(sz.meshSide, sz.meshSide, sz.meshSide)
	}
	return repro.RMAT(sz.rmatScale, 16, seed)
}

func (w workload) partitionConfig(seed uint64) repro.Config {
	return repro.Config{
		Parts: numParts, RandomDist: true, Seed: seed,
		AsyncExchange: w.async, PipeDepth: pipeDepth,
	}
}

func (w workload) analyticsConfig() repro.AnalyticsConfig {
	return repro.AnalyticsConfig{
		HCSources: hcSources, AsyncExchange: w.async, PipeDepth: pipeDepth,
	}
}
