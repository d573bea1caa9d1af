package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// runPartition builds g distributed over nranks and partitions it,
// returning the global assignment and the (rank 0) report.
func runPartition(t *testing.T, g *gen.Generator, nranks int, opt Options) ([]int32, Report) {
	t.Helper()
	var global []int32
	var rep Report
	mpi.Run(nranks, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 42})
		if err != nil {
			t.Errorf("rank %d: build: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		parts, r, err := Partition(dg, opt)
		if err != nil {
			t.Errorf("rank %d: partition: %v", c.Rank(), err)
			return
		}
		full := dg.GatherGlobal(parts[:dg.NLocal])
		if c.Rank() == 0 {
			global = full
			rep = r
		}
	})
	return global, rep
}

func TestPartitionAssignsEveryVertex(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	shared := g.MustBuild()
	opt := DefaultOptions(8)
	parts, _ := runPartition(t, g, 4, opt)
	if parts == nil {
		t.Fatal("no partition returned")
	}
	if err := partition.Validate(shared, parts, 8); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBeatsRandomCut(t *testing.T) {
	// The whole point of the partitioner: much lower cut than random.
	g := gen.RandHD(4096, 8, 5)
	shared := g.MustBuild()
	const p = 8
	parts, _ := runPartition(t, g, 4, DefaultOptions(p))
	qx := partition.Evaluate(shared, parts, p)
	qr := partition.Evaluate(shared, partition.Random(shared, p, 1), p)
	if qx.EdgeCutRatio > qr.EdgeCutRatio/2 {
		t.Errorf("XtraPuLP cut %.3f not well below random %.3f", qx.EdgeCutRatio, qr.EdgeCutRatio)
	}
}

func TestPartitionVertexBalance(t *testing.T) {
	g := gen.ERAvgDeg(4096, 16, 7)
	shared := g.MustBuild()
	const p = 8
	parts, rep := runPartition(t, g, 4, DefaultOptions(p))
	q := partition.Evaluate(shared, parts, p)
	// Constraint is 1.10; allow slack for the distributed estimates.
	if q.VertexImbalance > 1.15 {
		t.Errorf("vertex imbalance %.3f exceeds constraint", q.VertexImbalance)
	}
	if rep.Quality.VertexImbalance != q.VertexImbalance {
		t.Errorf("report imbalance %.3f != evaluated %.3f", rep.Quality.VertexImbalance, q.VertexImbalance)
	}
}

func TestPartitionEdgeBalance(t *testing.T) {
	// Skewed graph: the edge-balance stage must control degree sums.
	g := gen.ChungLu(4096, 32768, 2.2, 9)
	shared := g.MustBuild()
	const p = 8
	parts, _ := runPartition(t, g, 4, DefaultOptions(p))
	q := partition.Evaluate(shared, parts, p)
	if q.EdgeImbalance > 1.5 {
		t.Errorf("edge imbalance %.3f far above constraint 1.10", q.EdgeImbalance)
	}
}

func TestSingleConstraintMode(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	shared := g.MustBuild()
	opt := DefaultOptions(4)
	opt.SingleConstraint = true
	parts, rep := runPartition(t, g, 2, opt)
	if err := partition.Validate(shared, parts, 4); err != nil {
		t.Fatal(err)
	}
	if rep.EdgeTime != 0 {
		t.Errorf("single-constraint run spent %v in edge stage", rep.EdgeTime)
	}
	if rep.Quality.VertexImbalance > 1.15 {
		t.Errorf("vertex imbalance %.3f exceeds constraint", rep.Quality.VertexImbalance)
	}
}

func TestInitStrategies(t *testing.T) {
	g := gen.ERAvgDeg(2048, 8, 13)
	shared := g.MustBuild()
	for _, init := range []InitStrategy{InitBFS, InitRandom, InitBlock} {
		opt := DefaultOptions(4)
		opt.Init = init
		parts, _ := runPartition(t, g, 2, opt)
		if err := partition.Validate(shared, parts, 4); err != nil {
			t.Errorf("init %v: %v", init, err)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := gen.RMAT(9, 8, 17)
	opt := DefaultOptions(4)
	a, _ := runPartition(t, g, 2, opt)
	b, _ := runPartition(t, g, 2, opt)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			// Single-threaded ranks are fully deterministic.
			t.Fatalf("vertex %d: part %d vs %d across identical runs", i, a[i], b[i])
		}
	}
}

func TestRankCountInvariance(t *testing.T) {
	// Quality must stay in the same regime regardless of rank count
	// (Fig. 5's subject). Exact equality is not expected.
	g := gen.RandHD(2048, 8, 19)
	shared := g.MustBuild()
	const p = 8
	var ratios []float64
	for _, nranks := range []int{1, 2, 4, 8} {
		parts, _ := runPartition(t, g, nranks, DefaultOptions(p))
		q := partition.Evaluate(shared, parts, p)
		ratios = append(ratios, q.EdgeCutRatio)
	}
	for i, r := range ratios {
		if r > 0.5 {
			t.Errorf("nranks index %d: cut ratio %.3f unreasonably high", i, r)
		}
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := gen.ER(256, 1024, 23)
	parts, rep := runPartition(t, g, 2, DefaultOptions(1))
	for v, pt := range parts {
		if pt != 0 {
			t.Fatalf("vertex %d in part %d with p=1", v, pt)
		}
	}
	if rep.Quality.CutEdges != 0 {
		t.Errorf("p=1 cut edges = %d", rep.Quality.CutEdges)
	}
}

func TestPartitionMorePartsThanRanks(t *testing.T) {
	g := gen.ERAvgDeg(1024, 8, 29)
	shared := g.MustBuild()
	parts, _ := runPartition(t, g, 2, DefaultOptions(16))
	if err := partition.Validate(shared, parts, 16); err != nil {
		t.Fatal(err)
	}
	sizes := partition.PartSizes(parts, 16)
	empty := 0
	for _, s := range sizes {
		if s == 0 {
			empty++
		}
	}
	if empty > 2 {
		t.Errorf("%d of 16 parts empty", empty)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := gen.ER(64, 128, 1)
	mpi.Run(1, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.Edges(), dgraph.BlockDist{N: g.N, P: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer dg.Close()
		bad := []Options{
			{NumParts: 0},
			{NumParts: 2, Iouter: 0},
			{NumParts: 2, Iouter: 1, VertImbalance: -1},
			{NumParts: 2, Iouter: 1, X: -0.5},
		}
		for i, opt := range bad {
			if _, _, err := Partition(dg, opt); err == nil {
				t.Errorf("case %d: expected validation error", i)
			}
		}
	})
}

func TestReportTimesPopulated(t *testing.T) {
	g := gen.RMAT(9, 8, 31)
	_, rep := runPartition(t, g, 2, DefaultOptions(4))
	if rep.TotalTime <= 0 || rep.InitTime <= 0 || rep.VertTime <= 0 || rep.EdgeTime <= 0 {
		t.Errorf("report times not populated: %+v", rep)
	}
	if rep.InitIters < 1 {
		t.Errorf("InitIters = %d", rep.InitIters)
	}
}

func TestMultithreadedRanksProduceValidPartition(t *testing.T) {
	g := gen.RMAT(10, 8, 37)
	shared := g.MustBuild()
	const p = 8
	var global []int32
	mpi.RunThreads(2, 4, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 3})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		parts, _, err := Partition(dg, DefaultOptions(p))
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		full := dg.GatherGlobal(parts[:dg.NLocal])
		if c.Rank() == 0 {
			global = full
		}
	})
	if err := partition.Validate(shared, global, p); err != nil {
		t.Fatal(err)
	}
	q := partition.Evaluate(shared, global, p)
	if q.VertexImbalance > 1.25 {
		t.Errorf("threaded run vertex imbalance %.3f", q.VertexImbalance)
	}
}

func TestMeshPartitionQuality(t *testing.T) {
	// On a regular mesh, label propagation partitioning should find
	// spatially coherent parts with modest cut.
	g := gen.Grid3D(12, 12, 12)
	shared := g.MustBuild()
	const p = 8
	parts, _ := runPartition(t, g, 4, DefaultOptions(p))
	q := partition.Evaluate(shared, parts, p)
	qr := partition.Evaluate(shared, partition.Random(shared, p, 1), p)
	if q.EdgeCutRatio > qr.EdgeCutRatio/2 {
		t.Errorf("mesh cut %.3f vs random %.3f", q.EdgeCutRatio, qr.EdgeCutRatio)
	}
}

func TestTraceEventsCoverAllStages(t *testing.T) {
	g := gen.ERAvgDeg(1024, 8, 41)
	var events []TraceEvent
	mpi.Run(2, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 42})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		opt := DefaultOptions(4)
		opt.Trace = func(ev TraceEvent) { events = append(events, ev) }
		if _, _, err := Partition(dg, opt); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	// 2 outer groups × Iouter × (Ibal + Iref) events.
	want := 2 * 3 * (5 + 10)
	if len(events) != want {
		t.Fatalf("got %d trace events, want %d", len(events), want)
	}
	stages := map[string]int{}
	for _, ev := range events {
		stages[ev.Stage]++
		if ev.MaxVerts <= 0 {
			t.Fatalf("event %+v has nonpositive MaxVerts", ev)
		}
		if ev.Mult < 1 {
			t.Fatalf("event %+v multiplier below floor", ev)
		}
	}
	for _, st := range []string{"vbal", "vref", "ebal", "eref"} {
		if stages[st] == 0 {
			t.Errorf("no events for stage %s (got %v)", st, stages)
		}
	}
	// Balance phases must tighten the max part size over the run: the
	// last vbal event is no worse than the first.
	var first, last int64
	for _, ev := range events {
		if ev.Stage == "vbal" {
			if first == 0 {
				first = ev.MaxVerts
			}
			last = ev.MaxVerts
		}
	}
	if last > first {
		t.Errorf("vertex balance regressed: first max %d, last max %d", first, last)
	}
}

// Property: any seed yields a structurally valid partition with all
// parts within the vertex cap (plus estimation slack).
func TestQuickPartitionValidAcrossSeeds(t *testing.T) {
	g := gen.ERAvgDeg(512, 8, 43)
	shared := g.MustBuild()
	f := func(seed uint64) bool {
		opt := DefaultOptions(4)
		opt.Seed = seed
		var ok = true
		mpi.Run(2, func(c *mpi.Comm) {
			dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
				dgraph.HashDist{P: c.Size(), Seed: 17})
			if err != nil {
				ok = false
				return
			}
			defer dg.Close()
			parts, rep, err := Partition(dg, opt)
			if err != nil {
				ok = false
				return
			}
			full := dg.GatherGlobal(parts[:dg.NLocal])
			if c.Rank() == 0 {
				if partition.Validate(shared, full, 4) != nil {
					ok = false
				}
				if rep.Quality.VertexImbalance > 1.25 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
