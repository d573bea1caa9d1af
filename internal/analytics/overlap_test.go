package analytics

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// On an incomplete rank neighborhood async termination has no epoch to
// defer it: every round runs the same exact Allreduce as sync. Each
// round-driven analytic must therefore perform exactly as many
// Allreduces in both modes — for BFS at least one per level — and
// reach the same result.
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
		if dg.AsyncExchanger().NeighborhoodComplete() { // collective
			if c.Rank() == 0 {
				t.Errorf("blocked 3D grid on 3 ranks should have an incomplete rank neighborhood")
			}
			return
		}
		type run struct {
			levels        []int64
			ecc           int64
			wcc, core, lp []int64
			reduce        [4]int64 // BFS, WCC, K-Core, LabelProp
		}
		exec := func(async bool) run {
			dg.SetAsyncExchange(async)
			var r run
			c.ResetStats()
			r.levels, r.ecc = BFS(dg, 0)
			r.reduce[0] = c.Stats().ReductionOps
			c.ResetStats()
			r.wcc, _ = WCC(dg)
			r.reduce[1] = c.Stats().ReductionOps
			c.ResetStats()
			r.core, _ = KCore(dg, 20)
			r.reduce[2] = c.Stats().ReductionOps
			c.ResetStats()
			r.lp, _ = LabelProp(dg, 8)
			r.reduce[3] = c.Stats().ReductionOps
			return r
		}
		sync := exec(false)
		async := exec(true)
		names := [4]string{"BFS", "WCC", "K-Core", "LabelProp"}
		for i, name := range names {
			if async.reduce[i] != sync.reduce[i] {
				t.Errorf("rank %d: %s performed %d Allreduces async, %d sync (want equal: per-round exact termination)",
					c.Rank(), name, async.reduce[i], sync.reduce[i])
			}
		}
		if async.reduce[0] < async.ecc {
			t.Errorf("rank %d: async BFS performed %d Allreduces over %d levels (want one per level)",
				c.Rank(), async.reduce[0], async.ecc)
		}
		if async.ecc != sync.ecc {
			t.Errorf("rank %d: BFS eccentricity %d async, %d sync", c.Rank(), async.ecc, sync.ecc)
		}
		for v := 0; v < dg.NLocal; v++ {
			if async.levels[v] != sync.levels[v] || async.wcc[v] != sync.wcc[v] ||
				async.core[v] != sync.core[v] || async.lp[v] != sync.lp[v] {
				t.Errorf("rank %d: gid %d differs: BFS %d/%d WCC %d/%d core %d/%d LP %d/%d (async/sync)",
					c.Rank(), dg.L2G[v], async.levels[v], sync.levels[v], async.wcc[v], sync.wcc[v],
					async.core[v], sync.core[v], async.lp[v], sync.lp[v])
				return
			}
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
