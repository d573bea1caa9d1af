package analytics

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// oracleGraphs is the input set of the WCC and K-Core oracles: one
// small instance of each generator class, plus three disjoint paths and
// a graph that is mostly isolated vertices.
func oracleGraphs() []*gen.Generator {
	var paths []graph.Edge
	for c := int64(0); c < 3; c++ {
		for i := int64(0); i < 39; i++ {
			paths = append(paths, graph.Edge{U: c*40 + i, V: c*40 + i + 1})
		}
	}
	isolated := []graph.Edge{{U: 3, V: 60}, {U: 60, V: 61}, {U: 17, V: 17}}
	return []*gen.Generator{
		gen.RMAT(10, 8, 3),
		gen.ChungLu(1<<10, 1<<13, 2.2, 5),
		gen.Grid3D(10, 10, 10),
		gen.RandHD(1024, 8, 7),
		gen.FromEdgeList("paths3", 120, paths),
		gen.FromEdgeList("isolated", 64, isolated),
	}
}

// forOracleMatrix runs check on every shard of g over ranks {1,2,3,5}
// × {sync, async} × threads {1,3}.
func forOracleMatrix(t *testing.T, g *gen.Generator, check func(name string, ranks int, dg *dgraph.Graph)) {
	t.Helper()
	for _, ranks := range []int{1, 2, 3, 5} {
		for _, async := range []bool{false, true} {
			for _, threads := range []int{1, 3} {
				name := fmt.Sprintf("%s ranks=%d async=%v threads=%d", g.Name, ranks, async, threads)
				mpi.RunThreads(ranks, threads, func(c *mpi.Comm) {
					dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
						dgraph.HashDist{P: c.Size(), Seed: 7})
					if err != nil {
						t.Errorf("%s: rank %d: %v", name, c.Rank(), err)
						return
					}
					defer dg.Close()
					dg.SetAsyncExchange(async)
					check(name, ranks, dg)
				})
			}
		}
	}
}

// componentsReference labels every vertex of the shared graph with the
// smallest id in its component, by serial BFS from each unlabelled
// vertex in ascending order, and returns the labels and the component
// count.
func componentsReference(g *graph.Graph) ([]int64, int) {
	labels := make([]int64, g.N)
	for v := range labels {
		labels[v] = -1
	}
	comps := 0
	var queue []int64
	for s := range g.N {
		if labels[s] >= 0 {
			continue
		}
		comps++
		labels[s] = s
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if labels[u] < 0 {
					labels[u] = s
					queue = append(queue, u)
				}
			}
		}
	}
	return labels, comps
}

// TestWCCMatchesSerialComponents ties WCC to serial BFS components on
// every input class across the rank, mode and thread matrix. On one
// rank the union-find settles every label in the first round, so the
// run is that round plus one confirming round.
func TestWCCMatchesSerialComponents(t *testing.T) {
	for _, g := range oracleGraphs() {
		want, wantComps := componentsReference(g.MustBuild())
		forOracleMatrix(t, g, func(name string, ranks int, dg *dgraph.Graph) {
			labels, res := WCC(dg)
			if res.Value != float64(wantComps) {
				t.Errorf("%s: rank %d: %v components, reference %d", name, dg.Comm.Rank(), res.Value, wantComps)
			}
			if ranks == 1 && res.Iterations > 2 {
				t.Errorf("%s: %d rounds on one rank, want ≤ 2", name, res.Iterations)
			}
			for v, l := range labels {
				if gid := dg.L2G[v]; l != want[gid] {
					t.Errorf("%s: rank %d: label(gid %d) = %d, reference %d", name, dg.Comm.Rank(), gid, l, want[gid])
					return
				}
			}
		})
	}
}

// TestKCoreCountTestMatchesHIndex checks KCore's early-out against the
// full h-index: for every c, "at least c values are ≥ c" must hold
// exactly when hIndex(vals) ≥ c.
func TestKCoreCountTestMatchesHIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	var buckets []int64
	for trial := 0; trial < 400; trial++ {
		n := rng.IntN(40)
		maxVal := int64(1 + rng.IntN(2*n+2))
		vals := make([]int64, n)
		nbrs := make([]int32, n)
		for i := range vals {
			vals[i] = rng.Int64N(maxVal + 1)
			nbrs[i] = int32(i)
		}
		var h int64
		h, buckets = hIndex(slices.Clone(vals), buckets)
		for c := int64(0); c <= maxVal+1; c++ {
			if got, want := hIndexAtLeast(nbrs, vals, c), !(h < c); got != want {
				t.Fatalf("vals %v, c=%d: count test %v, hIndex %d", vals, c, got, h)
			}
		}
	}
}

// coreReference is Batagelj–Zaversnik peeling on the shared graph,
// counting every adjacency entry (multi-edges and self loops as the
// distributed shards store them).
func coreReference(g *graph.Graph) []int64 {
	n := g.N
	deg := make([]int64, n)
	var maxDeg int64
	for v := range n {
		deg[v] = g.Degree(v)
		maxDeg = max(maxDeg, deg[v])
	}
	bin := make([]int64, maxDeg+1)
	for _, d := range deg {
		bin[d]++
	}
	var start int64
	for d := range bin {
		bin[d], start = start, start+bin[d]
	}
	pos := make([]int64, n)
	vert := make([]int64, n)
	for v := range n {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	for i := range n {
		v := vert[i]
		for _, u := range g.Neighbors(v) {
			if deg[u] > deg[v] {
				du, pu := deg[u], pos[u]
				pw := bin[du]
				if w := vert[pw]; u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return deg
}

// TestKCoreMatchesPeeling: run to convergence, KCore's estimates must
// be the exact coreness and its value the maximum coreness, across the
// rank, mode and thread matrix.
func TestKCoreMatchesPeeling(t *testing.T) {
	const rounds = 10_000
	for _, g := range oracleGraphs() {
		want := coreReference(g.MustBuild())
		var wantMax int64
		for _, c := range want {
			wantMax = max(wantMax, c)
		}
		forOracleMatrix(t, g, func(name string, _ int, dg *dgraph.Graph) {
			core, res := KCore(dg, rounds)
			if res.Iterations >= rounds {
				t.Errorf("%s: KCore did not converge in %d rounds", name, rounds)
			}
			if res.Value != float64(wantMax) {
				t.Errorf("%s: rank %d: max coreness %v, reference %d", name, dg.Comm.Rank(), res.Value, wantMax)
			}
			for v, c := range core {
				if gid := dg.L2G[v]; c != want[gid] {
					t.Errorf("%s: rank %d: core(gid %d) = %d, reference %d", name, dg.Comm.Rank(), gid, c, want[gid])
					return
				}
			}
		})
	}
}

// benchAnalytic times run on shards of each benchmark graph: a skewed
// graph over two ranks on the async engine and a regular mesh on one
// rank. The shards are built once per case; only run is timed.
func benchAnalytic(b *testing.B, run func(dg *dgraph.Graph)) {
	cases := []struct {
		name  string
		g     *gen.Generator
		ranks int
		async bool
	}{
		{"rmat14_2ranks_async", gen.RMAT(14, 16, 1), 2, true},
		{"grid32_1rank", gen.Grid3D(32, 32, 32), 1, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			mpi.Run(tc.ranks, func(c *mpi.Comm) {
				dg, err := dgraph.FromEdgeChunks(c, tc.g.N, tc.g.EdgesChunk(c.Rank(), c.Size()),
					dgraph.HashDist{P: c.Size(), Seed: 7})
				if err != nil {
					b.Error(err)
					return
				}
				defer dg.Close()
				dg.SetAsyncExchange(tc.async)
				// Every rank has built its shard before the clock
				// starts, and only rank 0 touches the timer.
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for range b.N {
					run(dg)
				}
			})
		})
	}
}

// BenchmarkWCC times one WCC run.
func BenchmarkWCC(b *testing.B) {
	benchAnalytic(b, func(dg *dgraph.Graph) { WCC(dg) })
}

// BenchmarkKCore times one KCore run at RunAll's 50-round cap.
func BenchmarkKCore(b *testing.B) {
	benchAnalytic(b, func(dg *dgraph.Graph) { KCore(dg, 50) })
}

// BenchmarkSCC times one SCC run: two BFS sweeps from the pivot.
func BenchmarkSCC(b *testing.B) {
	benchAnalytic(b, func(dg *dgraph.Graph) { SCC(dg) })
}
