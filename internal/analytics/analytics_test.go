package analytics

import (
	"math"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// withDistributed builds g over nranks and runs check on each shard.
func withDistributed(t *testing.T, g *gen.Generator, nranks int, check func(dg *dgraph.Graph)) {
	t.Helper()
	mpi.Run(nranks, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 7})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		check(dg)
	})
}

func TestBFSMatchesSharedLevels(t *testing.T) {
	g := gen.ERAvgDeg(1000, 8, 3)
	shared := g.MustBuild()
	wantLevels, wantEcc := shared.BFS(0)
	withDistributed(t, g, 4, func(dg *dgraph.Graph) {
		levels, ecc := BFS(dg, 0)
		if ecc != wantEcc {
			t.Errorf("rank %d: ecc %d != %d", dg.Comm.Rank(), ecc, wantEcc)
		}
		for v := 0; v < dg.NLocal; v++ {
			gid := dg.L2G[v]
			if levels[v] != wantLevels[gid] {
				t.Errorf("rank %d: level(gid %d) = %d, want %d",
					dg.Comm.Rank(), gid, levels[v], wantLevels[gid])
				return
			}
		}
	})
}

func TestBFSDisconnected(t *testing.T) {
	// Two cliques, no bridge: vertices in the far clique stay at -1.
	var edges []graph.Edge
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
			edges = append(edges, graph.Edge{U: 5 + i, V: 5 + j})
		}
	}
	mpi.Run(2, func(c *mpi.Comm) {
		var chunk []graph.Edge
		if c.Rank() == 0 {
			chunk = edges
		}
		dg, err := dgraph.FromEdgeChunks(c, 10, chunk, dgraph.BlockDist{N: 10, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		levels, ecc := BFS(dg, 0)
		if ecc != 1 {
			t.Errorf("ecc = %d, want 1", ecc)
		}
		for v := 0; v < dg.NLocal; v++ {
			gid := dg.L2G[v]
			want := int64(-1)
			if gid == 0 {
				want = 0
			} else if gid < 5 {
				want = 1
			}
			if levels[v] != want {
				t.Errorf("level(gid %d) = %d, want %d", gid, levels[v], want)
			}
		}
	})
}

func TestWCCCountsComponents(t *testing.T) {
	// Three disjoint paths.
	var edges []graph.Edge
	for c := int64(0); c < 3; c++ {
		base := c * 100
		for i := int64(0); i < 99; i++ {
			edges = append(edges, graph.Edge{U: base + i, V: base + i + 1})
		}
	}
	mpi.Run(3, func(c *mpi.Comm) {
		lo := len(edges) * c.Rank() / c.Size()
		hi := len(edges) * (c.Rank() + 1) / c.Size()
		dg, err := dgraph.FromEdgeChunks(c, 300, edges[lo:hi], dgraph.HashDist{P: c.Size(), Seed: 9})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		labels, res := WCC(dg)
		if res.Value != 3 {
			t.Errorf("components = %v, want 3", res.Value)
		}
		for v := 0; v < dg.NLocal; v++ {
			want := (dg.L2G[v] / 100) * 100 // min gid of its path
			if labels[v] != want {
				t.Errorf("label(gid %d) = %d, want %d", dg.L2G[v], labels[v], want)
				return
			}
		}
	})
}

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.RMAT(10, 8, 5)
	withDistributed(t, g, 4, func(dg *dgraph.Graph) {
		_, res := PageRank(dg, 20, 0.85)
		if math.Abs(res.Value-1.0) > 1e-9 {
			t.Errorf("rank mass %v, want 1.0", res.Value)
		}
	})
}

func TestPageRankMatchesSharedReference(t *testing.T) {
	g := gen.ERAvgDeg(500, 8, 11)
	shared := g.MustBuild()
	// Shared-memory reference PageRank.
	n := float64(shared.N)
	ref := make([]float64, shared.N)
	for i := range ref {
		ref[i] = 1.0 / n
	}
	tmp := make([]float64, shared.N)
	const d = 0.85
	for it := 0; it < 20; it++ {
		var dangling float64
		for v := int64(0); v < shared.N; v++ {
			if shared.Degree(v) == 0 {
				dangling += ref[v]
			}
		}
		base := (1-d)/n + d*dangling/n
		for v := int64(0); v < shared.N; v++ {
			var sum float64
			for _, u := range shared.Neighbors(v) {
				sum += ref[u] / float64(shared.Degree(u))
			}
			tmp[v] = base + d*sum
		}
		copy(ref, tmp)
	}
	withDistributed(t, g, 4, func(dg *dgraph.Graph) {
		vals, _ := PageRank(dg, 20, d)
		for v := 0; v < dg.NLocal; v++ {
			gid := dg.L2G[v]
			if math.Abs(vals[v]-ref[gid]) > 1e-12 {
				t.Errorf("PR(gid %d) = %v, want %v", gid, vals[v], ref[gid])
				return
			}
		}
	})
}

func TestKCoreOnCliquePlusTail(t *testing.T) {
	// 6-clique (coreness 5) with a path tail (coreness 1).
	var edges []graph.Edge
	for i := int64(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	for i := int64(6); i < 19; i++ {
		edges = append(edges, graph.Edge{U: i - 1, V: i})
	}
	mpi.Run(2, func(c *mpi.Comm) {
		lo := len(edges) * c.Rank() / c.Size()
		hi := len(edges) * (c.Rank() + 1) / c.Size()
		dg, err := dgraph.FromEdgeChunks(c, 19, edges[lo:hi], dgraph.BlockDist{N: 19, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		core, res := KCore(dg, 50)
		if res.Value != 5 {
			t.Errorf("max coreness %v, want 5", res.Value)
		}
		for v := 0; v < dg.NLocal; v++ {
			gid := dg.L2G[v]
			want := int64(1)
			if gid < 6 {
				want = 5
			}
			if core[v] != want {
				t.Errorf("core(gid %d) = %d, want %d", gid, core[v], want)
			}
		}
	})
}

func TestHIndex(t *testing.T) {
	cases := []struct {
		vals []int64
		want int64
	}{
		{nil, 0},
		{[]int64{0}, 0},
		{[]int64{5}, 1},
		{[]int64{1, 1, 1}, 1},
		{[]int64{3, 3, 3}, 3},
		{[]int64{10, 8, 5, 4, 3}, 4},
		{[]int64{25, 8, 5, 3, 3, 2}, 3},
	}
	var buckets []int64
	for _, c := range cases {
		cp := append([]int64(nil), c.vals...)
		var got int64
		got, buckets = hIndex(cp, buckets)
		if got != c.want {
			t.Errorf("hIndex(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

// TestHIndexPooledBucketsAllocFree is the allocation regression for
// KCore's hot loop: once the pooled bucket buffer has grown to the
// neighborhood size, repeated hIndex calls must not touch the heap
// (the old implementation allocated a fresh bucket slice per vertex
// per round).
func TestHIndexPooledBucketsAllocFree(t *testing.T) {
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i % 17)
	}
	buckets := make([]int64, 0, len(vals)+1)
	scratch := make([]int64, len(vals))
	if avg := testing.AllocsPerRun(100, func() {
		copy(scratch, vals)
		_, buckets = hIndex(scratch, buckets)
	}); avg != 0 {
		t.Errorf("hIndex with pooled buckets: %.2f allocs per call, want 0", avg)
	}
}

func TestLabelPropFindsPlantedCommunities(t *testing.T) {
	// Two dense blocks with a single bridge: LP should settle on two
	// (or very few) communities.
	var edges []graph.Edge
	for b := int64(0); b < 2; b++ {
		base := b * 50
		for i := int64(0); i < 50; i++ {
			for j := i + 1; j < i+5 && j < 50; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 50})
	mpi.Run(2, func(c *mpi.Comm) {
		lo := len(edges) * c.Rank() / c.Size()
		hi := len(edges) * (c.Rank() + 1) / c.Size()
		dg, err := dgraph.FromEdgeChunks(c, 100, edges[lo:hi], dgraph.HashDist{P: c.Size(), Seed: 3})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		labels, res := LabelProp(dg, 20)
		_ = labels
		total := mpi.AllreduceScalar(dg.Comm, int64(res.Value), mpi.Sum)
		// Communities counted per rank can overlap; the global bound
		// still reflects coarse community structure.
		if total > 30 {
			t.Errorf("LP found %d rank-local communities; expected strong consolidation", total)
		}
	})
}

func TestSCCFindsLargestComponent(t *testing.T) {
	g := gen.ERAvgDeg(1000, 8, 17)
	shared := g.MustBuild()
	want := int64(len(shared.LargestComponent()))
	withDistributed(t, g, 4, func(dg *dgraph.Graph) {
		// Pivot is the max-degree vertex; in a connected-ish ER graph
		// its component is the giant one.
		_, res := SCC(dg)
		if int64(res.Value) != want {
			t.Errorf("SCC size %v, want %d", res.Value, want)
		}
	})
}

func TestRunAllProducesSixResults(t *testing.T) {
	g := gen.RMAT(9, 8, 21)
	withDistributed(t, g, 2, func(dg *dgraph.Graph) {
		results := RunAll(dg, 4)
		if len(results) != 6 {
			t.Fatalf("got %d results", len(results))
		}
		names := []string{"HC", "KC", "LP", "PR", "SCC", "WCC"}
		for i, r := range results {
			if r.Name != names[i] {
				t.Errorf("result %d name %s, want %s", i, r.Name, names[i])
			}
			if r.Time <= 0 {
				t.Errorf("%s: zero time", r.Name)
			}
		}
	})
}

func TestHarmonicCentralityCenterOfPath(t *testing.T) {
	// On a path, the center has the highest harmonic centrality.
	var edges []graph.Edge
	const n = 21
	for i := int64(0); i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	mpi.Run(2, func(c *mpi.Comm) {
		lo := len(edges) * c.Rank() / c.Size()
		hi := len(edges) * (c.Rank() + 1) / c.Size()
		dg, err := dgraph.FromEdgeChunks(c, n, edges[lo:hi], dgraph.BlockDist{N: n, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		srcs := make([]int64, n)
		for i := range srcs {
			srcs[i] = int64(i)
		}
		hc, _ := HarmonicCentrality(dg, srcs)
		full := dg.GatherGlobal(toInt32Scaled(hc, dg))
		var best int32 = -1
		bestGID := int64(-1)
		for gid, v := range full {
			if v > best {
				best, bestGID = v, int64(gid)
			}
		}
		if bestGID != n/2 {
			t.Errorf("max centrality at %d, want %d", bestGID, int64(n/2))
		}
	})
}

// toInt32Scaled packs float centralities into int32 (x1000) for gather.
func toInt32Scaled(vals []float64, dg *dgraph.Graph) []int32 {
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = int32(v * 1000)
	}
	return out
}

// TestEmptyGraphAnalytics drives every analytic over a zero-vertex
// graph: SCC used to sweep from pivot -1 (a BFS from a nonexistent
// gid) and the guards must now return clean zero results without any
// collective mismatch, in both exchange modes.
func TestEmptyGraphAnalytics(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		for _, async := range []bool{false, true} {
			dg, err := dgraph.FromEdgeChunks(c, 0, nil, dgraph.BlockDist{N: 0, P: c.Size()})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			dg.SetAsyncExchange(async)
			levels, ecc := BFS(dg, 0)
			if len(levels) != 0 || ecc != 0 {
				t.Errorf("async=%v: BFS on empty graph: %d levels, ecc %d", async, len(levels), ecc)
			}
			if _, res := SCC(dg); res.Value != 0 {
				t.Errorf("async=%v: SCC on empty graph: size %v, want 0", async, res.Value)
			}
			results := RunAll(dg, 4)
			if len(results) != 6 {
				t.Fatalf("async=%v: RunAll on empty graph: %d results", async, len(results))
			}
			for _, r := range results {
				if r.Value != 0 {
					t.Errorf("async=%v: %s on empty graph: value %v, want 0", async, r.Name, r.Value)
				}
			}
			dg.Close()
		}
	})
}

// TestSingleVertexAnalytics covers the one-vertex, zero-edge shard:
// the pivot exists but has no neighbors anywhere.
func TestSingleVertexAnalytics(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, 1, nil, dgraph.BlockDist{N: 1, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if _, res := SCC(dg); res.Value != 1 {
			t.Errorf("SCC on single vertex: size %v, want 1", res.Value)
		}
		if _, res := WCC(dg); res.Value != 1 {
			t.Errorf("WCC on single vertex: components %v, want 1", res.Value)
		}
		dg.Close()
	})
}

// TestHCSourceListDistinct: no source may ever be counted twice, and a
// request past the vertex count stops at it.
func TestHCSourceListDistinct(t *testing.T) {
	for _, tc := range []struct{ n, nGlobal, want int }{
		{4, 100, 4}, {100, 7, 7}, {0, 5, 0}, {3, 0, 0},
	} {
		srcs := HCSourceList(tc.n, int64(tc.nGlobal))
		if len(srcs) != tc.want {
			t.Errorf("HCSourceList(%d, %d): %d sources, want %d", tc.n, tc.nGlobal, len(srcs), tc.want)
		}
		seen := map[int64]struct{}{}
		for _, s := range srcs {
			if s < 0 || s >= int64(tc.nGlobal) {
				t.Errorf("HCSourceList(%d, %d): source %d out of range", tc.n, tc.nGlobal, s)
			}
			if _, dup := seen[s]; dup {
				t.Errorf("HCSourceList(%d, %d): duplicate source %d", tc.n, tc.nGlobal, s)
			}
			seen[s] = struct{}{}
		}
	}
}

// TestLabelPropReportsExecutedRounds: LP used to report the REQUESTED
// iteration bound as Result.Iterations even when propagation reached
// its fixed point rounds earlier; it must report the executed count,
// like WCC and KC.
func TestLabelPropReportsExecutedRounds(t *testing.T) {
	// Two 5-cliques, no bridge: plurality LP settles in a handful of
	// rounds, far below the 50 requested.
	var edges []graph.Edge
	for b := int64(0); b < 2; b++ {
		base := b * 5
		for i := int64(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	mpi.Run(2, func(c *mpi.Comm) {
		var chunk []graph.Edge
		if c.Rank() == 0 {
			chunk = edges
		}
		dg, err := dgraph.FromEdgeChunks(c, 10, chunk, dgraph.BlockDist{N: 10, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		_, res := LabelProp(dg, 50)
		if res.Iterations <= 0 || res.Iterations >= 50 {
			t.Errorf("LP reported %d iterations for a run that converges in a handful", res.Iterations)
		}
		dg.Close()
	})
}

// TestLabelPropGlobalCommunityCount: Result.Value must be the GLOBAL
// distinct-community count — identical on every rank and equal to the
// count over the gathered labels — not the old rank-local count, which
// overcounted communities spanning rank boundaries.
func TestLabelPropGlobalCommunityCount(t *testing.T) {
	g := gen.ChungLu(1<<9, 1<<12, 2.2, 13)
	withDistributed(t, g, 4, func(dg *dgraph.Graph) {
		labels, res := LabelProp(dg, 8)
		all := mpi.Allgatherv(dg.Comm, labels)
		distinct := map[int64]struct{}{}
		for _, rankLabels := range all {
			for _, l := range rankLabels {
				distinct[l] = struct{}{}
			}
		}
		if res.Value != float64(len(distinct)) {
			t.Errorf("rank %d: LP community count %v, want global %d",
				dg.Comm.Rank(), res.Value, len(distinct))
		}
	})
}

func TestApproxDiameterMatchesShared(t *testing.T) {
	g := gen.RandHD(2048, 8, 7)
	shared := g.MustBuild()
	want := shared.ApproxDiameter(6, 1)
	withDistributed(t, g, 4, func(dg *dgraph.Graph) {
		got := ApproxDiameter(dg, 6, 0)
		// Both estimators lower-bound the true diameter; with the same
		// far-level restart scheme they land in the same neighborhood.
		if got < want/2 || got > 2*want {
			t.Errorf("distributed diameter %d vs shared %d", got, want)
		}
	})
}

func TestApproxDiameterPathExact(t *testing.T) {
	var edges []graph.Edge
	const n = 64
	for i := int64(0); i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	mpi.Run(3, func(c *mpi.Comm) {
		lo := len(edges) * c.Rank() / c.Size()
		hi := len(edges) * (c.Rank() + 1) / c.Size()
		dg, err := dgraph.FromEdgeChunks(c, n, edges[lo:hi], dgraph.BlockDist{N: n, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		if d := ApproxDiameter(dg, 4, 20); d != n-1 {
			t.Errorf("path diameter %d, want %d", d, n-1)
		}
	})
}
