package analytics

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// crossModeRun is one engine pass over the five overlapped analytics.
type crossModeRun struct {
	bfsLevels []int64
	bfsEcc    int64
	pr        []float64
	prNorm    float64
	wcc       []int64
	core      []int64
	lp        []int64
	sent      int64 // elements this rank sent
	tally     int64 // of which piggybacked tally framing
	reduce    int64 // Allreduces this rank entered
}

func execCrossMode(c *mpi.Comm, dg *dgraph.Graph, async bool) crossModeRun {
	dg.SetAsyncExchange(async)
	c.ResetStats()
	var r crossModeRun
	r.bfsLevels, r.bfsEcc = BFS(dg, 0)
	var prRes Result
	r.pr, prRes = PageRank(dg, 10, 0.85)
	r.prNorm = prRes.Value
	r.wcc, _ = WCC(dg)
	r.core, _ = KCore(dg, 20)
	r.lp, _ = LabelProp(dg, 8)
	st := c.Stats()
	r.reduce, r.sent, r.tally = st.ReductionOps, st.ElemsSent, st.TallyElems
	return r
}

// compareCrossMode asserts two engine passes produced bit-identical
// per-vertex results.
func compareCrossMode(t *testing.T, dg *dgraph.Graph, sync, async crossModeRun) {
	t.Helper()
	c := dg.Comm
	if sync.bfsEcc != async.bfsEcc {
		t.Errorf("rank %d: BFS eccentricity %d vs %d", c.Rank(), sync.bfsEcc, async.bfsEcc)
	}
	if sync.prNorm != async.prNorm {
		t.Errorf("rank %d: PR norm %v vs %v (must be bit-identical)", c.Rank(), sync.prNorm, async.prNorm)
	}
	for v := 0; v < dg.NLocal; v++ {
		if sync.bfsLevels[v] != async.bfsLevels[v] {
			t.Errorf("rank %d: BFS level(gid %d) %d vs %d",
				c.Rank(), dg.L2G[v], sync.bfsLevels[v], async.bfsLevels[v])
			return
		}
		if sync.pr[v] != async.pr[v] {
			t.Errorf("rank %d: PageRank(gid %d) %v vs %v (must be bit-identical)",
				c.Rank(), dg.L2G[v], sync.pr[v], async.pr[v])
			return
		}
		if sync.wcc[v] != async.wcc[v] {
			t.Errorf("rank %d: WCC label(gid %d) %d vs %d",
				c.Rank(), dg.L2G[v], sync.wcc[v], async.wcc[v])
			return
		}
		if sync.core[v] != async.core[v] {
			t.Errorf("rank %d: coreness(gid %d) %d vs %d",
				c.Rank(), dg.L2G[v], sync.core[v], async.core[v])
			return
		}
		if sync.lp[v] != async.lp[v] {
			t.Errorf("rank %d: LP label(gid %d) %d vs %d",
				c.Rank(), dg.L2G[v], sync.lp[v], async.lp[v])
			return
		}
	}
}

// Every analytic must produce identical results in sync and async
// mode — same boundary-first sweeps, same fixed points — while async,
// on this complete rank neighborhood, performs no per-round Allreduce
// at all: its reduction count is a small per-run constant (one
// completeness detection, BFS's eccentricity, PageRank's prologue and
// final norm, WCC's component count, K-Core's max). Both modes ship
// the same boundary values over the same exchanger, so apart from the
// settles — one element per Allreduce (every one of them is a scalar)
// and the piggybacked tally framing — each rank sends exactly the same
// elements in both modes.
func TestAnalyticsCrossModeDeterminism(t *testing.T) {
	g := gen.ChungLu(1<<10, 1<<13, 2.2, 9)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 7})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		sync := execCrossMode(c, dg, false)
		async := execCrossMode(c, dg, true)
		compareCrossMode(t, dg, sync, async)
		complete := dg.AsyncExchanger().NeighborhoodComplete() // collective (cached after exec)
		syncPayload := sync.sent - sync.tally - sync.reduce
		asyncPayload := async.sent - async.tally - async.reduce
		if sync.tally != 0 || asyncPayload != syncPayload {
			t.Errorf("rank %d: boundary payload %d elements async, %d sync (want equal; sync tally framing %d, want 0)",
				c.Rank(), asyncPayload, syncPayload, sync.tally)
		}
		if c.Rank() == 0 {
			if !complete {
				t.Errorf("test graph must have a complete rank neighborhood")
				return
			}
			// O(1) per analytic, independent of round counts: the
			// convergence counters ride the value messages.
			const maxAsyncReduce = 8
			if async.reduce > maxAsyncReduce {
				t.Errorf("async analytics performed %d Allreduces, want <= %d (counters must piggyback)",
					async.reduce, maxAsyncReduce)
			}
			if async.reduce >= sync.reduce {
				t.Errorf("async Allreduces %d not below sync %d", async.reduce, sync.reduce)
			}
		}
	})
}

// The piggybacked counters are only exact on complete rank
// neighborhoods; on an incomplete one (a path-of-blocks layout where
// rank 0 never talks to rank 2) the engines must detect it and fall
// back to exact per-round Allreduce termination — results still
// bit-identical to sync.
func TestAnalyticsCrossModeIncompleteNeighborhood(t *testing.T) {
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
		sync := execCrossMode(c, dg, false)
		async := execCrossMode(c, dg, true)
		compareCrossMode(t, dg, sync, async)
	})
}
