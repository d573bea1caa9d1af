package analytics

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spmv"
)

// Every boundary exchange runs on the graph's delta exchanger in both
// exchange modes, so at every rank count neither partitioning nor any
// analytic calls Alltoallv — the one call left is LabelProp's community
// count, which hash-partitions the final labels once and is not a
// boundary exchange. The mode changes only how rounds settle, so
// partitioning posts the same point-to-point sends in both modes. SpMV
// runs its expand/fold schedules point-to-point in both modes and
// layouts, so it makes no Alltoallv call either.
func TestNoAlltoallvBoundaryExchange(t *testing.T) {
	g := gen.ChungLu(1<<9, 1<<12, 2.2, 5)
	shared := g.MustBuild()
	for _, ranks := range []int{1, 2, 3, 4, 8} {
		spmvParts := partition.Random(shared, ranks, 7)
		var sends [2][]int64
		for mode, async := range []bool{false, true} {
			sends[mode] = make([]int64, ranks)
			mpi.Run(ranks, func(c *mpi.Comm) {
				dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
					dgraph.HashDist{P: c.Size(), Seed: 7})
				if err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				defer dg.Close()
				dg.SetAsyncExchange(async)
				opt := core.DefaultOptions(4)
				opt.Seed = 3
				if async {
					opt.Exchange = core.ExchangeAsyncDelta
				}
				spmvRun := func(layout spmv.Layout) func() {
					return func() {
						opt := spmv.Options{Layout: layout, Iterations: 3, Async: async}
						if _, err := spmv.Run(c, shared, spmvParts, opt); err != nil {
							t.Errorf("rank %d: %v", c.Rank(), err)
						}
					}
				}
				runs := []struct {
					name      string
					alltoallv int64
					run       func()
				}{
					{"Partition", 0, func() {
						_, rep, err := core.Partition(dg, opt)
						if err != nil {
							t.Errorf("rank %d: %v", c.Rank(), err)
						}
						sends[mode][c.Rank()] = rep.SendOps
					}},
					{"HC", 0, func() { HarmonicCentrality(dg, HCSourceList(4, dg.NGlobal)) }},
					{"KC", 0, func() { KCore(dg, 20) }},
					{"LP", 1, func() { LabelProp(dg, 5) }},
					{"PR", 0, func() { PageRank(dg, 5, 0.85) }},
					{"SCC", 0, func() { SCC(dg) }},
					{"WCC", 0, func() { WCC(dg) }},
					{"BFS", 0, func() { BFS(dg, 0) }},
					{"SpMV1D", 0, spmvRun(spmv.OneD)},
					{"SpMV2D", 0, spmvRun(spmv.TwoD)},
				}
				for _, r := range runs {
					before := c.Stats().ExchangeOps
					r.run()
					if got := c.Stats().ExchangeOps - before; got != r.alltoallv {
						t.Errorf("ranks=%d async=%v rank %d: %s made %d Alltoallv calls, want %d",
							ranks, async, c.Rank(), r.name, got, r.alltoallv)
					}
				}
			})
		}
		for r := 0; r < ranks; r++ {
			if sends[0][r] != sends[1][r] || (ranks > 1) != (sends[0][r] > 0) {
				t.Errorf("ranks=%d rank %d: partitioning posted %d sends sync, %d async (want equal, nonzero with peers)",
					ranks, r, sends[0][r], sends[1][r])
			}
		}
	}
}
