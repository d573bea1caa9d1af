package pulp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

func TestPartitionValidAssignment(t *testing.T) {
	g := gen.RMAT(10, 8, 3).MustBuild()
	for _, p := range []int{2, 4, 16} {
		parts, _, err := Partition(g, DefaultOptions(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := partition.Validate(g, parts, p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestVertexBalanceConstraint(t *testing.T) {
	g := gen.ERAvgDeg(4096, 16, 5).MustBuild()
	parts, rep, err := Partition(g, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	q := partition.Evaluate(g, parts, 8)
	if q.VertexImbalance > 1.12 {
		t.Errorf("vertex imbalance %.3f exceeds constraint", q.VertexImbalance)
	}
	if rep.Quality.CutEdges != q.CutEdges {
		t.Errorf("report cut %d != evaluated %d", rep.Quality.CutEdges, q.CutEdges)
	}
}

func TestEdgeBalanceOnSkewedGraph(t *testing.T) {
	g := gen.ChungLu(4096, 32768, 2.2, 7).MustBuild()
	parts, _, err := Partition(g, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	q := partition.Evaluate(g, parts, 8)
	if q.EdgeImbalance > 1.6 {
		t.Errorf("edge imbalance %.3f too high", q.EdgeImbalance)
	}
}

func TestBeatsRandomCut(t *testing.T) {
	g := gen.RandHD(4096, 8, 9).MustBuild()
	const p = 8
	parts, _, err := Partition(g, DefaultOptions(p))
	if err != nil {
		t.Fatal(err)
	}
	q := partition.Evaluate(g, parts, p)
	qr := partition.Evaluate(g, partition.Random(g, p, 1), p)
	if q.EdgeCutRatio > qr.EdgeCutRatio/2 {
		t.Errorf("PuLP cut %.3f not well below random %.3f", q.EdgeCutRatio, qr.EdgeCutRatio)
	}
}

func TestSingleConstraintSkipsEdgeStage(t *testing.T) {
	g := gen.RMAT(9, 8, 11).MustBuild()
	opt := DefaultOptions(4)
	opt.SingleConstraint = true
	_, rep, err := Partition(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EdgeTime != 0 {
		t.Errorf("edge stage ran in single-constraint mode (%v)", rep.EdgeTime)
	}
}

func TestDeterministicSingleThread(t *testing.T) {
	g := gen.RMAT(9, 8, 13).MustBuild()
	opt := DefaultOptions(4)
	opt.Threads = 1 // TestPartitionCrossThread covers other counts
	a, _, _ := Partition(g, opt)
	b, _, _ := Partition(g, opt)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d differs across identical runs", v)
		}
	}
}

// TestPartitionCrossThread pins the partition to the thread count's
// independence: every count gives the serial run's labels, and both
// constraints hold. The graphs span several chunks, so the parallel
// proposals and their serial admission both run; the mesh spans two
// groups of chunks.
func TestPartitionCrossThread(t *testing.T) {
	cases := []struct {
		name string
		g    *gen.Generator
		p    int
	}{
		{"chunglu", gen.ChungLu(16384, 131072, 2.2, 7), 8},
		{"rmat", gen.RMAT(14, 8, 5), 16},
		{"mesh", gen.Grid3D(40, 40, 40), 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.g.MustBuild()
			opt := DefaultOptions(c.p)
			opt.Threads = 1
			ref, _, err := Partition(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			q := partition.Evaluate(g, ref, c.p)
			if q.VertexImbalance > 1.12 || q.EdgeImbalance > 1.6 {
				t.Errorf("imbalance vertex %.3f edge %.3f", q.VertexImbalance, q.EdgeImbalance)
			}
			for _, threads := range []int{2, 4, 8} {
				opt.Threads = threads
				parts, _, err := Partition(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for v := range ref {
					if parts[v] != ref[v] {
						t.Fatalf("threads=%d: vertex %d in part %d, serial %d", threads, v, parts[v], ref[v])
					}
				}
			}
		})
	}
}

func TestMultithreadedValid(t *testing.T) {
	g := gen.RMAT(11, 8, 17).MustBuild()
	opt := DefaultOptions(8)
	opt.Threads = 4
	parts, _, err := Partition(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, parts, 8); err != nil {
		t.Fatal(err)
	}
	q := partition.Evaluate(g, parts, 8)
	if q.VertexImbalance > 1.25 {
		t.Errorf("threaded vertex imbalance %.3f", q.VertexImbalance)
	}
}

func TestRejectsBadNumParts(t *testing.T) {
	g := gen.ER(64, 128, 1).MustBuild()
	if _, _, err := Partition(g, Options{NumParts: 0}); err == nil {
		t.Fatal("expected error for NumParts=0")
	}
}

func TestSinglePart(t *testing.T) {
	g := gen.ER(128, 512, 1).MustBuild()
	parts, _, err := Partition(g, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range parts {
		if pt != 0 {
			t.Fatal("p=1 produced nonzero part id")
		}
	}
}

func BenchmarkPuLP16Parts(b *testing.B) {
	g := gen.RMAT(13, 16, 1).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Partition(g, DefaultOptions(16)); err != nil {
			b.Fatal(err)
		}
	}
}
