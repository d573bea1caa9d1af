package analytics

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// The termination-epoch knob (Graph.SetTermEpoch) bounds the exact
// termination Allreduce to every k-th round on incomplete rank
// neighborhoods. Results must stay bit-identical to sync — the rounds
// past the fixed point are global no-ops — while the reduction count
// drops roughly k-fold.
func TestTermEpochIncompleteNeighborhood(t *testing.T) {
	g := gen.Grid3D(8, 8, 8)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		if dg.AsyncExchanger().NeighborhoodComplete() {
			if c.Rank() == 0 {
				t.Errorf("blocked 3D grid on 3 ranks should have an incomplete rank neighborhood")
			}
			return
		}
		sync := execCrossMode(c, dg, false)

		dg.SetTermEpoch(1)
		exact := execCrossMode(c, dg, true)
		compareCrossMode(t, dg, sync, exact)

		dg.SetTermEpoch(4)
		epoch := execCrossMode(c, dg, true)
		compareCrossMode(t, dg, sync, epoch)

		if c.Rank() == 0 && epoch.reduce >= exact.reduce {
			t.Errorf("TermEpoch=4 performed %d Allreduces, per-round fallback %d (want fewer)",
				epoch.reduce, exact.reduce)
		}
	})
}

// The overlapped BFS must actually pipeline: the discovery push of
// depth d+1 is posted while depth d's ghost refresh is still in
// flight, so the exchanger's in-flight high-water mark reaches
// dgraph.DefaultPipeDepth on any multi-round search. A lone BFS is the
// one-wave case of the wave engine, so a deeper exchanger (depth 8, the
// benchmark's) must not change that: still exactly two rounds in
// flight, and levels equal to the synchronous loop's.
func TestBFSOverlappedPipelinesDepthTwo(t *testing.T) {
	g := gen.ChungLu(1<<10, 1<<13, 2.2, 9)
	for _, depth := range []int{0, 8} {
		mpi.Run(4, func(c *mpi.Comm) {
			dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
				dgraph.HashDist{P: c.Size(), Seed: 7})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			defer dg.Close()
			dg.SetPipeDepth(depth)
			want, _ := BFS(dg, 0)
			dg.SetAsyncExchange(true)
			levels, ecc := BFS(dg, 0)
			if ecc < 2 {
				t.Errorf("depth %d: rank %d: eccentricity %d too small to exercise pipelining", depth, c.Rank(), ecc)
			}
			if got := dg.AsyncExchanger().MaxDepth; got != dgraph.DefaultPipeDepth {
				t.Errorf("depth %d: rank %d: BFS reached pipeline depth %d, want %d (push must overlap the pending refresh)",
					depth, c.Rank(), got, dgraph.DefaultPipeDepth)
			}
			for v := range want {
				if levels[v] != want[v] {
					t.Errorf("depth %d: rank %d: level of lid %d is %d async, %d sync", depth, c.Rank(), v, levels[v], want[v])
					return
				}
			}
		})
	}
}

// K-Core's coreness maximum piggybacks on the convergence counter
// (TallyRound.Max): a converged overlapped run must report the same
// maximum as sync without the trailing Allreduce.
func TestKCoreMaxRidesTally(t *testing.T) {
	g := gen.ChungLu(1<<10, 1<<13, 2.2, 9)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 7})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		dg.SetAsyncExchange(false)
		_, syncRes := KCore(dg, 50)

		dg.SetAsyncExchange(true)
		c.ResetStats()
		_, asyncRes := KCore(dg, 50)
		reduce := c.Stats().ReductionOps
		if syncRes.Value != asyncRes.Value {
			t.Errorf("rank %d: KC max %v (sync) vs %v (async)", c.Rank(), syncRes.Value, asyncRes.Value)
		}
		if c.Rank() == 0 && reduce != 0 {
			t.Errorf("converged overlapped K-Core performed %d Allreduces, want 0 (max must ride the tally)", reduce)
		}
	})
}
