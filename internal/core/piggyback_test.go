package core

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// On an incomplete rank neighborhood the piggybacked tallies cannot
// reach non-neighbor ranks, so the partitioner must settle every
// iteration by the synchronous mode's exact Allreduce: the async
// partition and its reduction count both equal sync's. A 3-rank block
// distribution of a long 3D mesh gives a path topology (rank 0 and
// rank 2 own disjoint z-slabs two hops apart). The repository-level
// determinism test covers the piggybacked settles of complete
// topologies.
func TestPiggybackAutoFallbackIncompleteTopology(t *testing.T) {
	gn := gen.Grid3D(3, 3, 9)
	const ranks = 3
	var parts [2][]int32
	var reductions [2]int64
	for mode, exchange := range []ExchangeMode{ExchangeSync, ExchangeAsyncDelta} {
		mpi.Run(ranks, func(c *mpi.Comm) {
			dg, err := dgraph.FromEdgeChunks(c, gn.N, gn.EdgesChunk(c.Rank(), c.Size()),
				dgraph.BlockDist{N: gn.N, P: ranks})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			defer dg.Close()
			if exchange == ExchangeAsyncDelta && dg.AsyncExchanger().NeighborhoodComplete() {
				t.Errorf("rank %d: rank neighborhood complete, want a path", c.Rank())
				return
			}
			opt := DefaultOptions(4)
			opt.Seed = 11
			opt.Exchange = exchange
			local, rep, err := Partition(dg, opt)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			full := dg.GatherGlobal(local[:dg.NLocal])
			if c.Rank() == 0 {
				parts[mode] = full
				reductions[mode] = rep.ReductionOps
			}
		})
	}
	for v := range parts[0] {
		if parts[0][v] != parts[1][v] {
			t.Fatalf("partitions diverge at vertex %d: sync %d async %d", v, parts[0][v], parts[1][v])
		}
	}
	if reductions[0] != reductions[1] {
		t.Errorf("ReductionOps: sync %d, async %d, want equal", reductions[0], reductions[1])
	}
}
