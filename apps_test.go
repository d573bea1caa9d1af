package repro

import (
	"math"
	"strings"
	"testing"
)

func TestRunAnalyticsUnderAllPlacements(t *testing.T) {
	const nodes = 4
	gen := PowerLaw(1024, 8192, 2.1, 1)
	g := gen.MustBuild()
	for _, method := range []string{MethodVertexBlock, MethodEdgeBlock, MethodRandom} {
		parts, err := Partition(method, g, nodes, 1)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		results, err := RunAnalytics(gen, parts, nodes, 2)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(results) != 6 {
			t.Fatalf("%s: %d results", method, len(results))
		}
		// Structural results must not depend on placement.
		var wcc float64
		for _, r := range results {
			if r.Name == "WCC" {
				wcc = r.Value
			}
		}
		if wcc < 1 {
			t.Errorf("%s: WCC found %v components", method, wcc)
		}
	}
}

func TestRunAnalyticsResultsPlacementInvariant(t *testing.T) {
	const nodes = 4
	gen := RandER(512, 2048, 3)
	g := gen.MustBuild()
	var sccSizes, wccCounts []float64
	for _, method := range []string{MethodVertexBlock, MethodRandom} {
		parts, _ := Partition(method, g, nodes, 1)
		results, err := RunAnalytics(gen, parts, nodes, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			switch r.Name {
			case "SCC":
				sccSizes = append(sccSizes, r.Value)
			case "WCC":
				wccCounts = append(wccCounts, r.Value)
			}
		}
	}
	if sccSizes[0] != sccSizes[1] {
		t.Errorf("SCC size differs across placements: %v", sccSizes)
	}
	if wccCounts[0] != wccCounts[1] {
		t.Errorf("WCC count differs across placements: %v", wccCounts)
	}
}

func TestRunAnalyticsValidation(t *testing.T) {
	gen := RandER(100, 200, 1)
	if _, err := RunAnalytics(gen, make([]int32, 50), 4, 1); err == nil {
		t.Fatal("expected length mismatch error")
	}
	bad := make([]int32, 100)
	bad[0] = 9
	if _, err := RunAnalytics(gen, bad, 4, 1); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// Pipeline depths below 2 (other than 0 = default) are rejected at
	// the facade on both entry points, before any rank spawns.
	parts := make([]int32, 100)
	if _, err := RunAnalyticsCfg(gen, parts, AnalyticsConfig{Ranks: 4, PipeDepth: 1}); err == nil {
		t.Fatal("expected PipeDepth validation error from RunAnalyticsCfg")
	}
	if _, _, err := XtraPuLPGen(gen, Config{Parts: 4, Ranks: 2, PipeDepth: -3}); err == nil {
		t.Fatal("expected PipeDepth validation error from XtraPuLPGen")
	}
}

// Analytics results must be depth-independent through the public
// facade: a deeper pipeline only changes HC's wave schedule, never any
// value.
func TestRunAnalyticsDeepPipelineMatchesDefault(t *testing.T) {
	const nodes = 4
	gen := RandER(512, 2048, 3)
	g := gen.MustBuild()
	parts, err := Partition(MethodVertexBlock, g, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]AnalyticResult
	for i, depth := range []int{0, 8} {
		runs[i], err = RunAnalyticsCfg(gen, parts, AnalyticsConfig{
			Ranks: nodes, HCSources: 5, AsyncExchange: true, PipeDepth: depth,
		})
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
	}
	for i := range runs[0] {
		d, e := runs[0][i], runs[1][i]
		if d.Name != e.Name || d.Value != e.Value || d.Iterations != e.Iterations {
			t.Errorf("%s: depth 2 (%v, %d iters) vs depth 8 (%v, %d iters)",
				d.Name, d.Value, d.Iterations, e.Value, e.Iterations)
		}
	}
}

func TestRunSpMVBothLayouts(t *testing.T) {
	g := RMAT(9, 8, 1).MustBuild()
	parts, err := Partition(MethodVertexBlock, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var checks []float64
	for _, layout := range []string{Layout1D, Layout2D} {
		res, err := RunSpMV(g, parts, 4, layout, 5)
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		if res.Time <= 0 || res.CommVolume < 0 {
			t.Errorf("%s: result not populated: %+v", layout, res)
		}
		checks = append(checks, res.Checksum)
	}
	// 1D and 2D fold partial sums in different orders, so the final
	// norm agrees only to rounding across layouts.
	if math.Abs(checks[0]-checks[1]) > 1e-12*math.Max(checks[0], checks[1]) {
		t.Errorf("layout checksums differ: %v", checks)
	}
}

// The async SpMV engine is a pure transport change: checksums must be
// bit-identical to the synchronous engine under both layouts, while
// the sent-value volume drops (remote-only accounting plus, under 1D,
// the fully rank-local fold bypassing the transport).
func TestRunSpMVAsyncMatchesSyncChecksum(t *testing.T) {
	g := RMAT(9, 8, 1).MustBuild()
	parts, err := Partition(MethodVertexBlock, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []string{Layout1D, Layout2D} {
		var res [2]SpMVResult
		for i, async := range []bool{false, true} {
			r, err := RunSpMVCfg(g, parts, SpMVConfig{
				Ranks: 4, Layout: layout, Iterations: 8, AsyncExchange: async,
			})
			if err != nil {
				t.Fatalf("%s async=%v: %v", layout, async, err)
			}
			res[i] = r
		}
		if res[0].Checksum != res[1].Checksum {
			t.Errorf("%s: checksums diverge: sync %v async %v", layout, res[0].Checksum, res[1].Checksum)
		}
		if res[1].CommVolume >= res[0].CommVolume {
			t.Errorf("%s: async volume %d not below sync %d", layout, res[1].CommVolume, res[0].CommVolume)
		}
	}
}

// Analytics results must be mode-independent through the public facade.
func TestRunAnalyticsAsyncMatchesSync(t *testing.T) {
	const nodes = 4
	gen := RandER(512, 2048, 3)
	g := gen.MustBuild()
	parts, err := Partition(MethodVertexBlock, g, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]AnalyticResult
	for i, async := range []bool{false, true} {
		runs[i], err = RunAnalyticsCfg(gen, parts, AnalyticsConfig{
			Ranks: nodes, HCSources: 2, AsyncExchange: async,
		})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
	}
	for i := range runs[0] {
		s, a := runs[0][i], runs[1][i]
		if s.Name != a.Name || s.Value != a.Value || s.Iterations != a.Iterations {
			t.Errorf("%s: sync (%v, %d iters) vs async (%v, %d iters)",
				s.Name, s.Value, s.Iterations, a.Value, a.Iterations)
		}
	}
}

// A world without ranks is a configuration error on every facade entry
// point, named as such before any rank spawns, for any graph. The
// partitioner alone reads Ranks = 0 as its documented default of one
// rank.
func TestRunFacadesRejectNoRanks(t *testing.T) {
	gen := RandER(64, 128, 1)
	g := gen.MustBuild()
	parts := make([]int32, gen.N)
	empty := RandER(0, 0, 1)
	cases := []struct {
		name string
		run  func() error
	}{
		{"analytics ranks 0", func() error {
			_, err := RunAnalyticsReport(gen, parts, AnalyticsConfig{Ranks: 0, HCSources: 1})
			return err
		}},
		{"analytics empty generator", func() error {
			_, err := RunAnalyticsReport(empty, nil, AnalyticsConfig{Ranks: 0, HCSources: 1})
			return err
		}},
		{"spmv ranks 0", func() error {
			_, err := RunSpMV(g, parts, 0, Layout1D, 1)
			return err
		}},
		{"spmv ranks -1", func() error {
			_, err := RunSpMVCfg(g, parts, SpMVConfig{Ranks: -1, Layout: Layout2D, Iterations: 1})
			return err
		}},
		{"xtrapulp ranks -1", func() error {
			_, _, err := XtraPuLPGen(gen, Config{Parts: 2, Ranks: -1})
			return err
		}},
		{"xtrapulp shared graph ranks -4", func() error {
			_, _, err := XtraPuLP(g, Config{Parts: 2, Ranks: -4})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "Ranks") {
			t.Errorf("%s: error %v, want one naming Ranks", tc.name, err)
		}
	}
	if _, _, err := XtraPuLPGen(gen, Config{Parts: 2}); err != nil {
		t.Errorf("xtrapulp ranks 0 (default 1): %v", err)
	}
}

func TestRunSpMVUnknownLayout(t *testing.T) {
	g := RandER(64, 128, 1).MustBuild()
	parts, _ := Partition(MethodVertexBlock, g, 2, 1)
	if _, err := RunSpMV(g, parts, 2, "3d", 1); err == nil {
		t.Fatal("expected unknown-layout error")
	}
}

func TestXtraPuLPMoreRanksThanVertices(t *testing.T) {
	// Some ranks own zero vertices; the collective protocol must
	// survive empty shards.
	g := RandER(6, 12, 1).MustBuild()
	parts, _, err := XtraPuLP(g, Config{Parts: 2, Ranks: 8, RandomDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(parts)) != g.N {
		t.Fatalf("%d assignments", len(parts))
	}
	for _, pt := range parts {
		if pt < 0 || pt >= 2 {
			t.Fatalf("part %d out of range", pt)
		}
	}
}

func TestXtraPuLPPartsExceedVertices(t *testing.T) {
	// p > n collapses to p = n inside the core.
	g := RandER(4, 8, 1).MustBuild()
	parts, _, err := XtraPuLP(g, Config{Parts: 16, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range parts {
		if pt < 0 || pt >= 4 {
			t.Fatalf("part %d out of range after clamping", pt)
		}
	}
}

func TestXtraPuLPSeedsChangeOutcome(t *testing.T) {
	g := RMAT(10, 8, 1).MustBuild()
	a, _, _ := XtraPuLP(g, Config{Parts: 8, Ranks: 2, Seed: 1})
	b, _, _ := XtraPuLP(g, Config{Parts: 8, Ranks: 2, Seed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical partitions")
	}
}
