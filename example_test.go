package repro_test

import (
	"fmt"

	"repro"
)

// ExampleConfig_asyncExchange runs the same partitioning job in both
// exchange modes: async produces the identical partition over the same
// point-to-point messages while entering far fewer Allreduce barriers.
func ExampleConfig_asyncExchange() {
	gen := repro.RMAT(10, 8, 1)

	// ThreadsPerRank pinned serial: cross-mode bit-equality of the
	// PARTITIONER is only promised at one thread (the analytics and
	// SpMV are bit-identical at every thread count, the partitioner's
	// balance stage is not).
	sync := repro.Config{Parts: 8, Ranks: 4, ThreadsPerRank: 1, RandomDist: true, Seed: 7}
	async := sync
	async.AsyncExchange = true // size tallies piggyback on the update messages

	sparts, srep, err := repro.XtraPuLPGen(gen, sync)
	if err != nil {
		panic(err)
	}
	aparts, arep, err := repro.XtraPuLPGen(gen, async)
	if err != nil {
		panic(err)
	}

	identical := true
	for v := range sparts {
		if sparts[v] != aparts[v] {
			identical = false
			break
		}
	}
	fmt.Println("partitions identical:", identical)
	fmt.Println("same messages posted:", arep.SendOps == srep.SendOps)
	fmt.Println("async enters fewer allreduces:", arep.ReductionOps < srep.ReductionOps)
	// Output:
	// partitions identical: true
	// same messages posted: true
	// async enters fewer allreduces: true
}

// ExampleAnalyticsConfig routes the distributed analytics over the
// async delta engine; results are transport-independent.
func ExampleAnalyticsConfig() {
	gen := repro.RandER(512, 2048, 3)
	parts, err := repro.Partition(repro.MethodVertexBlock, gen.MustBuild(), 4, 1)
	if err != nil {
		panic(err)
	}
	results, err := repro.RunAnalyticsCfg(gen, parts, repro.AnalyticsConfig{
		Ranks: 4, HCSources: 2, AsyncExchange: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("analytics run:", len(results))
	// Output:
	// analytics run: 6
}
