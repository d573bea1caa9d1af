package gen

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// edgeSet builds a multiset signature of an edge list for union checks.
func edgeSet(edges []graph.Edge) map[graph.Edge]int {
	m := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		m[e]++
	}
	return m
}

func generators() []*Generator {
	return []*Generator{
		RMAT(10, 8, 1),
		ER(1000, 4000, 2),
		RandHD(1000, 8, 3),
		Grid3D(8, 8, 8),
		WattsStrogatz(1000, 8, 0.1, 4),
		ChungLu(1000, 4000, 2.2, 5),
	}
}

func TestGeneratorsEdgeCountsMatchM(t *testing.T) {
	for _, g := range generators() {
		edges := g.Edges()
		if int64(len(edges)) != g.M {
			t.Errorf("%s: generated %d edges, declared M=%d", g.Name, len(edges), g.M)
		}
		for _, e := range edges {
			if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
				t.Errorf("%s: out-of-range edge %v (N=%d)", g.Name, e, g.N)
				break
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	mk := func() []*Generator { return generators() }
	a, b := mk(), mk()
	for i := range a {
		ea, eb := a[i].Edges(), b[i].Edges()
		if len(ea) != len(eb) {
			t.Fatalf("%s: nondeterministic edge count", a[i].Name)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s: edge %d differs: %v vs %v", a[i].Name, j, ea[j], eb[j])
			}
		}
	}
}

func TestChunkUnionEqualsSerial(t *testing.T) {
	for _, g := range generators() {
		full := edgeSet(g.Edges())
		for _, p := range []int{2, 3, 5} {
			union := make(map[graph.Edge]int)
			total := 0
			for r := 0; r < p; r++ {
				chunk := g.EdgesChunk(r, p)
				total += len(chunk)
				for _, e := range chunk {
					union[e]++
				}
			}
			if total != len(g.Edges()) {
				t.Errorf("%s p=%d: chunk total %d != serial %d", g.Name, p, total, len(g.Edges()))
				continue
			}
			for e, c := range full {
				if union[e] != c {
					t.Errorf("%s p=%d: edge %v count %d != %d", g.Name, p, e, union[e], c)
					break
				}
			}
		}
	}
}

// TestEdgesChunkAllocatesOnce: every generator class sizes a chunk's
// edge array before filling it (one allocation; PrefAttach adds its
// endpoint pool; a chunk of no blocks allocates nothing), and the
// chunk holds exactly the edges its blocks append to an unsized slice.
func TestEdgesChunkAllocatesOnce(t *testing.T) {
	gens := []*Generator{
		RMAT(14, 8, 1),
		ER(20000, 40000, 2),
		RandHD(30000, 8, 3),
		Grid3D(32, 32, 32),
		WattsStrogatz(30000, 6, 0.1, 4),
		ChungLu(5000, 20000, 2.2, 5),
		PrefAttach(3000, 3, 6),
		FromEdgeList("copy", 20000, ER(20000, 30000, 7).Edges()),
	}
	for _, g := range gens {
		for _, p := range []int{1, 2, 3, 5} {
			for r := 0; r < p; r++ {
				lo, hi := g.blocks*int64(r)/int64(p), g.blocks*int64(r+1)/int64(p)
				want := 0.0 // a chunk of no blocks allocates nothing
				if hi > lo {
					want = 1
					if g.Name == "ba_n3000_m3" {
						want = 2
					}
				}
				if got := testing.AllocsPerRun(2, func() { g.EdgesChunk(r, p) }); got != want {
					t.Errorf("%s chunk %d/%d: %.0f allocations, want %.0f", g.Name, r, p, got, want)
				}
				var ref []graph.Edge
				for b := lo; b < hi; b++ {
					ref = g.genBlock(b, ref)
				}
				if !slices.Equal(g.EdgesChunk(r, p), ref) {
					t.Errorf("%s chunk %d/%d: edges differ from the blocks' own output", g.Name, r, p)
				}
			}
		}
	}
}

func TestEdgesChunkValidation(t *testing.T) {
	g := ER(100, 100, 1)
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EdgesChunk(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			g.EdgesChunk(bad[0], bad[1])
		}()
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := RMAT(12, 16, 7).MustBuild()
	if g.N != 1<<12 {
		t.Fatalf("N = %d, want %d", g.N, 1<<12)
	}
	stats := g.ComputeStats(4, 1)
	// R-MAT must be heavily skewed: max degree far above average.
	if float64(stats.MaxDeg) < 8*stats.AvgDeg {
		t.Errorf("R-MAT not skewed: max=%d avg=%.1f", stats.MaxDeg, stats.AvgDeg)
	}
}

// rmatFloatEdges generates RMAT(scale, avgDeg, seed)'s edges with the
// quadrant chosen by comparing Float64() against a, a+b and a+b+c.
func rmatFloatEdges(scale int, avgDeg int64, seed uint64) []graph.Edge {
	const a, b, c = 0.57, 0.19, 0.19
	m := (int64(1) << uint(scale)) * avgDeg / 2
	var out []graph.Edge
	for blk := int64(0); blk < numBlocksFor(m); blk++ {
		r := rng.NewStream(seed, uint64(blk))
		lo, hi := blockBounds(blk, m)
		for i := lo; i < hi; i++ {
			var u, v int64
			for bit := 0; bit < scale; bit++ {
				switch p := r.Float64(); {
				case p < a:
				case p < a+b:
					v |= 1 << uint(bit)
				case p < a+b+c:
					u |= 1 << uint(bit)
				default:
					u |= 1 << uint(bit)
					v |= 1 << uint(bit)
				}
			}
			out = append(out, graph.Edge{U: u, V: v})
		}
	}
	return out
}

// TestRMATMatchesFloatQuadrants: the integer-threshold quadrant choice
// gives the float comparisons' edges, edge for edge, over several seeds
// and scales (scale 14 spans several generator blocks), and a threshold
// splits the 53-bit draws exactly where Float64() < t does.
func TestRMATMatchesFloatQuadrants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7, 42} {
		for _, scale := range []int{1, 5, 10, 14} {
			got, want := RMAT(scale, 16, seed).Edges(), rmatFloatEdges(scale, 16, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, scale %d: integer thresholds change the edges", seed, scale)
			}
		}
	}
	for _, p := range []float64{0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.3, 1e-9, 1} {
		th := rmatThreshold(p)
		for k := th - 2; k <= th+1; k++ {
			if k >= 1<<53 {
				continue
			}
			if below := float64(k)/(1<<53) < p; below != (passes(k, th) == 0) {
				t.Errorf("t=%v k=%d: Float64() < t is %v, threshold %d says %v", p, k, below, th, passes(k, th) == 0)
			}
		}
	}
}

func TestERDegreesConcentrated(t *testing.T) {
	g := ERAvgDeg(4096, 16, 9).MustBuild()
	stats := g.ComputeStats(4, 1)
	if stats.AvgDeg < 14 || stats.AvgDeg > 18 {
		t.Errorf("ER avg degree %.1f, want ≈16", stats.AvgDeg)
	}
	// Poisson-like tail: max degree within a small factor of the mean.
	if float64(stats.MaxDeg) > 4*stats.AvgDeg {
		t.Errorf("ER too skewed: max=%d avg=%.1f", stats.MaxDeg, stats.AvgDeg)
	}
}

func TestRandHDHasHigherDiameterThanER(t *testing.T) {
	n := int64(4096)
	hd := RandHD(n, 8, 11).MustBuild()
	er := ERAvgDeg(n, 8, 11).MustBuild()
	dHD := hd.ApproxDiameter(6, 1)
	dER := er.ApproxDiameter(6, 1)
	if dHD <= 3*dER {
		t.Errorf("RandHD diameter %d not ≫ ER diameter %d", dHD, dER)
	}
}

func TestRandHDLocality(t *testing.T) {
	n, davg := int64(10000), int64(8)
	for _, e := range RandHD(n, davg, 13).Edges() {
		d := e.U - e.V
		if d < 0 {
			d = -d
		}
		if d > n/2 {
			d = n - d // wrapped distance
		}
		if d >= davg {
			t.Fatalf("RandHD edge %v spans distance %d >= davg %d", e, d, davg)
		}
	}
}

func TestGrid3DStructure(t *testing.T) {
	g := Grid3D(4, 5, 6).MustBuild()
	if g.N != 120 {
		t.Fatalf("N = %d, want 120", g.N)
	}
	wantM := int64(3*5*6 + 4*4*6 + 4*5*5)
	if g.NumEdges() != wantM {
		t.Fatalf("M = %d, want %d", g.NumEdges(), wantM)
	}
	if g.MaxDegree() != 6 {
		t.Fatalf("max degree = %d, want 6", g.MaxDegree())
	}
	// A mesh must be connected with diameter (nx-1)+(ny-1)+(nz-1).
	_, comps := g.ConnectedComponents()
	if comps != 1 {
		t.Fatalf("mesh has %d components", comps)
	}
	if d := g.ApproxDiameter(8, 1); d != 3+4+5 {
		t.Fatalf("mesh diameter estimate %d, want 12", d)
	}
}

func TestWattsStrogatzBetaZeroIsRing(t *testing.T) {
	g := WattsStrogatz(100, 4, 0, 1).MustBuild()
	for v := int64(0); v < g.N; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("ring vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
	if d := g.ApproxDiameter(6, 1); d != 25 {
		t.Fatalf("ring lattice diameter %d, want 25", d)
	}
}

func TestWattsStrogatzRewireShrinksDiameter(t *testing.T) {
	ring := WattsStrogatz(2000, 4, 0, 2).MustBuild()
	sw := WattsStrogatz(2000, 4, 0.1, 2).MustBuild()
	dRing := ring.ApproxDiameter(5, 1)
	dSW := sw.ApproxDiameter(5, 1)
	if dSW*4 > dRing {
		t.Errorf("rewiring did not shrink diameter: ring=%d sw=%d", dRing, dSW)
	}
}

func TestChungLuSkew(t *testing.T) {
	g := ChungLu(4096, 32768, 2.2, 3).MustBuild()
	stats := g.ComputeStats(4, 1)
	if float64(stats.MaxDeg) < 10*stats.AvgDeg {
		t.Errorf("ChungLu not skewed: max=%d avg=%.1f", stats.MaxDeg, stats.AvgDeg)
	}
	// Low-id vertices carry the large weights.
	if g.Degree(0) < g.Degree(g.N-1) {
		t.Errorf("weight ordering violated: deg(0)=%d < deg(n-1)=%d", g.Degree(0), g.Degree(g.N-1))
	}
}

// Property: for arbitrary seeds and rank counts, chunk totals always
// cover M exactly (no lost or duplicated blocks).
func TestQuickChunkCoverage(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		g := ER(500, 3000, seed)
		total := 0
		for r := 0; r < p; r++ {
			total += len(g.EdgesChunk(r, p))
		}
		return int64(total) == g.M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRMATScale16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RMAT(16, 16, 1).Edges()
	}
}

func BenchmarkERScale16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ERAvgDeg(1<<16, 16, 1).Edges()
	}
}

func TestPrefAttachStructure(t *testing.T) {
	g := PrefAttach(2000, 4, 9).MustBuild()
	if g.NumEdges() != (2000-4)*4+3 {
		t.Fatalf("M = %d", g.NumEdges())
	}
	stats := g.ComputeStats(4, 1)
	// BA graphs are connected with power-law hubs among early vertices.
	if stats.NumComps != 1 {
		t.Errorf("BA graph has %d components", stats.NumComps)
	}
	if float64(stats.MaxDeg) < 8*stats.AvgDeg {
		t.Errorf("BA not skewed: max=%d avg=%.1f", stats.MaxDeg, stats.AvgDeg)
	}
	// Hubs live among the oldest vertices.
	var oldMax, newMax int64
	for v := int64(0); v < 100; v++ {
		if d := g.Degree(v); d > oldMax {
			oldMax = d
		}
	}
	for v := g.N - 100; v < g.N; v++ {
		if d := g.Degree(v); d > newMax {
			newMax = d
		}
	}
	if oldMax <= newMax {
		t.Errorf("old vertices (max deg %d) not hubbier than new (%d)", oldMax, newMax)
	}
}

func TestFromEdgeListWrapsStaticEdges(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	g := FromEdgeList("static", 4, edges)
	if g.M != 3 || g.N != 4 {
		t.Fatalf("N=%d M=%d", g.N, g.M)
	}
	got := g.Edges()
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	// Chunk union still covers everything.
	total := 0
	for r := 0; r < 3; r++ {
		total += len(g.EdgesChunk(r, 3))
	}
	if total != 3 {
		t.Fatalf("chunks cover %d edges", total)
	}
}
