package spmv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// serialPower computes k normalized power iterations of the adjacency
// matrix in shared memory as the reference. It returns the iterated
// vector and the last iteration's norm before normalization.
func serialPower(g *graph.Graph, k int) ([]float64, float64) {
	x := make([]float64, g.N)
	y := make([]float64, g.N)
	for i := range x {
		x[i] = 1.0 / float64(g.N)
	}
	var last float64
	for it := 0; it < k; it++ {
		var norm float64
		for u := int64(0); u < g.N; u++ {
			var sum float64
			for _, v := range g.Neighbors(u) {
				sum += x[v]
			}
			y[u] = sum
			if a := math.Abs(sum); a > norm {
				norm = a
			}
		}
		last = norm
		if norm == 0 {
			norm = 1
		}
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	return x, last
}

// relClose reports whether a and b agree to tol relative to the larger
// magnitude: the distributed engine sums each row in gid order, the
// serial reference in adjacency order, and 1D and 2D fold partials
// differently, so those comparisons hold only to rounding.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSpMVMatchesSerialBothLayouts(t *testing.T) {
	g := gen.ERAvgDeg(512, 8, 5).MustBuild()
	const iters = 10
	ref, refNorm := serialPower(g, iters)
	for _, layout := range []Layout{OneD, TwoD} {
		for _, p := range []int{1, 4, 6} {
			parts := partition.VertexBlock(g, p)
			mpi.Run(p, func(c *mpi.Comm) {
				res, m, err := run(c, g, parts, Options{Layout: layout, Iterations: iters})
				if err != nil {
					t.Errorf("%v p=%d: %v", layout, p, err)
					return
				}
				if !relClose(res.Checksum, refNorm, 1e-12) {
					t.Errorf("%v p=%d: checksum %v, want %v", layout, p, res.Checksum, refNorm)
				}
				for i, gid := range m.vecGIDs {
					if !relClose(m.x[i], ref[gid], 1e-12) {
						t.Errorf("%v p=%d: x[%d] = %v, want %v", layout, p, gid, m.x[i], ref[gid])
						return
					}
				}
			})
		}
	}
}

func TestLayoutsAgreeWithEachOther(t *testing.T) {
	g := gen.RMAT(9, 8, 7).MustBuild()
	const p = 4
	parts := partition.Random(g, p, 3)
	var cs [2]float64
	for li, layout := range []Layout{OneD, TwoD} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: layout, Iterations: 5})
			if err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			if c.Rank() == 0 {
				cs[li] = res.Checksum
			}
		})
	}
	if !relClose(cs[0], cs[1], 1e-12) {
		t.Fatalf("1D checksum %v != 2D checksum %v", cs[0], cs[1])
	}
}

func Test2DReducesCommOnSkewedGraph(t *testing.T) {
	// The Table III effect: on a skewed graph with a random vertex
	// partition, the 2D layout's total communication volume is lower
	// than 1D's.
	g := gen.ChungLu(4096, 32768, 2.0, 9).MustBuild()
	const p = 16
	parts := partition.Random(g, p, 5)
	var vol [2]int64
	for li, layout := range []Layout{OneD, TwoD} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: layout, Iterations: 3})
			if err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			v := mpi.AllreduceScalar(c, res.CommVolume, mpi.Sum)
			if c.Rank() == 0 {
				vol[li] = v
			}
		})
	}
	if vol[1] >= vol[0] {
		t.Errorf("2D volume %d not below 1D volume %d on skewed graph", vol[1], vol[0])
	}
}

func TestGoodPartitionReducesCommOver1DRandom(t *testing.T) {
	// A locality-preserving partition must communicate less than a
	// random one under the same 1D layout (the premise of Table III).
	g := gen.Grid3D(12, 12, 12).MustBuild()
	const p = 8
	var vol [2]int64
	for pi, parts := range [][]int32{partition.Random(g, p, 7), partition.VertexBlock(g, p)} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: OneD, Iterations: 3})
			if err != nil {
				t.Fatalf("%v", err)
			}
			v := mpi.AllreduceScalar(c, res.CommVolume, mpi.Sum)
			if c.Rank() == 0 {
				vol[pi] = v
			}
		})
	}
	if vol[1] >= vol[0] {
		t.Errorf("block partition volume %d not below random %d", vol[1], vol[0])
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct{ p, pr, pc int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {16, 4, 4}, {7, 1, 7}, {12, 3, 4},
	}
	for _, c := range cases {
		pr, pc := gridDims(c.p)
		if pr*pc != c.p {
			t.Errorf("gridDims(%d) = %d x %d", c.p, pr, pc)
		}
		if pr != c.pr || pc != c.pc {
			t.Errorf("gridDims(%d) = (%d,%d), want (%d,%d)", c.p, pr, pc, c.pr, c.pc)
		}
	}
}

func TestRejectsBadPartition(t *testing.T) {
	g := gen.ER(64, 128, 1).MustBuild()
	parts := make([]int32, g.N)
	parts[0] = 99
	mpi.Run(2, func(c *mpi.Comm) {
		if _, err := Run(c, g, parts, Options{Layout: OneD, Iterations: 1}); err == nil {
			t.Error("expected error for out-of-range part id")
		}
	})
}

// BenchmarkSpMV1D8Ranks times 10 chained multiplies in each mode: the
// one point-to-point engine with the norm reduced per expand (sync) or
// riding the expand messages (async). Two threads per rank put the
// row sums, folds and receive-side divides on parallel chunks, so a
// -race run of this benchmark covers them.
func BenchmarkSpMV1D8Ranks(b *testing.B) {
	g := gen.RMAT(12, 16, 1).MustBuild()
	parts := partition.Random(g, 8, 2)
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mpi.RunThreads(8, 2, func(c *mpi.Comm) {
					if _, err := Run(c, g, parts, Options{Layout: OneD, Iterations: 10, Async: async}); err != nil {
						b.Error(err)
					}
				})
			}
		})
	}
}

// Async mode's ∞-norm piggyback: on a complete expand neighborhood the
// per-iteration norm reduction rides the expand messages, so the run's
// Allreduce count is a small constant independent of the iteration
// count — while the checksum stays bit-identical to sync mode. The 2D
// layout confines each rank's expand traffic to its processor column,
// so its neighborhood is structurally incomplete and it must take the
// exact per-iteration fallback instead (same checksum either way).
func TestNormPiggybackZeroPerIterationAllreduce(t *testing.T) {
	g := gen.ChungLu(2048, 16384, 2.0, 9).MustBuild()
	const p = 4
	parts := partition.Random(g, p, 5)
	for _, layout := range []Layout{OneD, TwoD} {
		for _, iters := range []int{5, 20} {
			var syncCS, asyncCS float64
			var syncRed, asyncRed int64
			var piggy bool
			for _, async := range []bool{false, true} {
				mpi.Run(p, func(c *mpi.Comm) {
					res, err := Run(c, g, parts, Options{Layout: layout, Iterations: iters, Async: async})
					if err != nil {
						t.Errorf("%v async=%v: %v", layout, async, err)
						return
					}
					if c.Rank() == 0 {
						if async {
							asyncCS, asyncRed, piggy = res.Checksum, res.Reductions, res.NormPiggyback
						} else {
							syncCS, syncRed = res.Checksum, res.Reductions
						}
					}
				})
			}
			if syncCS != asyncCS {
				t.Errorf("%v iters=%d: checksum %v (sync) vs %v (async), must be bit-identical", layout, iters, syncCS, asyncCS)
			}
			if want := int64(iters); syncRed != want {
				t.Errorf("%v iters=%d: sync performed %d Allreduces, want %d", layout, iters, syncRed, want)
			}
			if layout == OneD {
				if !piggy {
					t.Fatalf("1D iters=%d: random partition on %d ranks should give a complete expand neighborhood", iters, p)
				}
				// Detection + trailing deferred normalization: constant,
				// independent of iters.
				if asyncRed != 2 {
					t.Errorf("1D iters=%d: async performed %d Allreduces, want 2 (norm must ride the expand messages)", iters, asyncRed)
				}
			} else {
				if piggy {
					t.Fatalf("2D iters=%d: column-confined expand traffic cannot form a complete neighborhood", iters)
				}
				if want := int64(iters + 1); asyncRed != want {
					t.Errorf("2D iters=%d: async fallback performed %d Allreduces, want %d", iters, asyncRed, want)
				}
			}
		}
	}
}

// On an incomplete expand neighborhood (a blocked mesh where distant
// slabs never exchange) the piggyback must detect infeasibility and
// fall back to the exact per-iteration Allreduce — still bit-identical
// to sync.
func TestNormPiggybackIncompleteFallback(t *testing.T) {
	g := gen.Grid3D(10, 10, 10).MustBuild()
	const p = 5
	parts := partition.VertexBlock(g, p)
	const iters = 6
	var syncCS, asyncCS float64
	var asyncRed int64
	var piggy bool
	for _, async := range []bool{false, true} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: OneD, Iterations: iters, Async: async})
			if err != nil {
				t.Errorf("async=%v: %v", async, err)
				return
			}
			if c.Rank() == 0 {
				if async {
					asyncCS, asyncRed, piggy = res.Checksum, res.Reductions, res.NormPiggyback
				} else {
					syncCS = res.Checksum
				}
			}
		})
	}
	if piggy {
		t.Fatalf("blocked 3D grid on %d ranks should have an incomplete expand neighborhood", p)
	}
	if syncCS != asyncCS {
		t.Errorf("checksum %v (sync) vs %v (async fallback), must be bit-identical", syncCS, asyncCS)
	}
	// Detection + one norm per iteration.
	if want := int64(iters + 1); asyncRed != want {
		t.Errorf("async fallback performed %d Allreduces, want %d", asyncRed, want)
	}
}

// build's linear passes must reproduce the map-and-sort construction
// schedule for schedule: on RMAT (duplicate arcs and self loops),
// ChungLu (skewed degrees) and Grid3D (regular), under random and
// blocked partitions (blocked ones leave schedule lists empty), both
// layouts, and rank counts giving 1×p and non-square processor grids.
func TestBuildMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(8, 8, 3).MustBuild()},
		{"chunglu", gen.ChungLu(300, 1500, 2.0, 4).MustBuild()},
		{"grid3d", gen.Grid3D(5, 6, 7).MustBuild()},
	}
	for _, tg := range graphs {
		for _, layout := range []Layout{OneD, TwoD} {
			for _, p := range []int{1, 2, 3, 4, 6} {
				for _, parts := range [][]int32{partition.Random(tg.g, p, 7), partition.VertexBlock(tg.g, p)} {
					mpi.Run(p, func(c *mpi.Comm) {
						got, err := build(c, tg.g, parts, layout)
						if err != nil {
							t.Errorf("%s %v p=%d: %v", tg.name, layout, p, err)
							return
						}
						want, err := buildReference(c, tg.g, parts, layout)
						if err != nil {
							t.Errorf("%s %v p=%d: reference: %v", tg.name, layout, p, err)
							return
						}
						for _, d := range scheduleDiffs(got, want) {
							t.Errorf("%s %v p=%d rank %d: %s differs from the reference", tg.name, layout, p, c.Rank(), d)
						}
					})
				}
			}
		}
	}
}

// scheduleDiffs names the schedule fields of got that differ from want,
// treating nil and empty lists as equal.
func scheduleDiffs(got, want *matrix) []string {
	var diffs []string
	check := func(name string, equal bool) {
		if !equal {
			diffs = append(diffs, name)
		}
	}
	check("vecGIDs", slices.Equal(got.vecGIDs, want.vecGIDs))
	check("rowGIDs", slices.Equal(got.rowGIDs, want.rowGIDs))
	check("rowPtr", slices.Equal(got.rowPtr, want.rowPtr))
	check("colIdx", slices.Equal(got.colIdx, want.colIdx))
	check("colGIDs", slices.Equal(got.colGIDs, want.colGIDs))
	check("colOff", slices.Equal(got.colOff, want.colOff))
	check("expandOut", slices.Equal(got.expandOut, want.expandOut))
	check("expandIn", slices.Equal(got.expandIn, want.expandIn))
	check("foldOut", slices.Equal(got.foldOut, want.foldOut))
	check("expandSend", slices.EqualFunc(got.expandSend, want.expandSend, slices.Equal[[]int]))
	check("foldSend", slices.EqualFunc(got.foldSend, want.foldSend, slices.Equal[[]int]))
	check("foldRecv", slices.EqualFunc(got.foldRecv, want.foldRecv, slices.Equal[[]int]))
	return diffs
}

// BenchmarkSpMVBuild times the schedule set-up alone — the part of a
// Run call that Result.Time excludes — on a skewed graph over two ranks
// and a regular mesh on one.
func BenchmarkSpMVBuild(b *testing.B) {
	cases := []struct {
		name  string
		g     *graph.Graph
		ranks int
	}{
		{"rmat14_1D_2ranks", gen.RMAT(14, 16, 1).MustBuild(), 2},
		{"grid32_1D_1rank", gen.Grid3D(32, 32, 32).MustBuild(), 1},
	}
	for _, tc := range cases {
		parts := partition.Random(tc.g, tc.ranks, 2)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mpi.Run(tc.ranks, func(c *mpi.Comm) {
					if _, err := build(c, tc.g, parts, OneD); err != nil {
						b.Error(err)
					}
				})
			}
		})
	}
}

// buildReference is the map-and-sort construction build replaced,
// kept as the oracle TestBuildMatchesReference compares every schedule
// against.
func buildReference(c *mpi.Comm, g *graph.Graph, parts []int32, layout Layout) (*matrix, error) {
	p := c.Size()
	me := c.Rank()
	for v := int64(0); v < g.N; v++ {
		if int(parts[v]) >= p || parts[v] < 0 {
			return nil, fmt.Errorf("spmv: vertex %d part %d outside [0,%d)", v, parts[v], p)
		}
	}
	pr, pc := 1, p
	if layout == TwoD {
		pr, pc = gridDims(p)
	}
	m := &matrix{c: c, p: p, me: me, pr: pr, threads: c.Threads()}
	if m.threads < 1 {
		m.threads = 1
	}
	m.mulBody = m.mulChunk
	m.foldBody = m.foldAddChunk
	m.selfBody = m.foldSelfChunk
	m.divBody = m.divChunk

	// Owned vector entries.
	for v := int64(0); v < g.N; v++ {
		if int(parts[v]) == me {
			m.vecGIDs = append(m.vecGIDs, v)
		}
	}
	vecIdx := make(map[int64]int, len(m.vecGIDs))
	for i, gid := range m.vecGIDs {
		vecIdx[gid] = i
	}
	m.x = make([]float64, len(m.vecGIDs))
	m.y = make([]float64, len(m.vecGIDs))
	for i := range m.x {
		m.x[i] = 1.0 / float64(g.N)
	}

	// Local nonzeros: arcs (u -> v) with nzRank == me, grouped by row.
	type nz struct{ u, v int64 }
	var mine []nz
	for u := int64(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if nzRank(layout, parts, pr, pc, u, v) == me {
				mine = append(mine, nz{u, v})
			}
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].u != mine[j].u {
			return mine[i].u < mine[j].u
		}
		return mine[i].v < mine[j].v
	})
	colSet := make(map[int64]int32)
	for i := 0; i < len(mine); {
		j := i
		for j < len(mine) && mine[j].u == mine[i].u {
			j++
		}
		m.rowGIDs = append(m.rowGIDs, mine[i].u)
		m.rowPtr = append(m.rowPtr, int64(i))
		i = j
	}
	m.rowPtr = append(m.rowPtr, int64(len(mine)))
	// Column index assignment happens after the receive order is fixed:
	// xbuf is filled src-major, then by gid, so colGIDs must be sorted
	// (owner-rank, gid).
	distinct := make(map[int64]struct{})
	for _, e := range mine {
		distinct[e.v] = struct{}{}
	}
	m.colGIDs = make([]int64, 0, len(distinct))
	for v := range distinct {
		m.colGIDs = append(m.colGIDs, v)
	}
	sort.Slice(m.colGIDs, func(i, j int) bool {
		oi, oj := parts[m.colGIDs[i]], parts[m.colGIDs[j]]
		if oi != oj {
			return oi < oj
		}
		return m.colGIDs[i] < m.colGIDs[j]
	})
	for i, v := range m.colGIDs {
		colSet[v] = int32(i)
	}
	m.colIdx = make([]int32, len(mine))
	for i, e := range mine {
		m.colIdx[i] = colSet[e.v]
	}
	m.xbuf = make([]float64, len(m.colGIDs))
	m.partial = make([]float64, len(m.rowGIDs))

	// Expand schedule. Sender side: for each owned vector entry v, the
	// set of ranks holding nonzeros with column v — enumerated via the
	// symmetric adjacency.
	sendSets := make([]map[int64]struct{}, p)
	for d := range sendSets {
		sendSets[d] = make(map[int64]struct{})
	}
	for _, v := range m.vecGIDs {
		for _, u := range g.Neighbors(v) { // arc (u, v): row u, col v
			dst := nzRank(layout, parts, pr, pc, u, v)
			sendSets[dst][v] = struct{}{}
		}
	}
	m.expandSend = make([][]int, p)
	for d := 0; d < p; d++ {
		gids := make([]int64, 0, len(sendSets[d]))
		for v := range sendSets[d] {
			gids = append(gids, v)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		idxs := make([]int, len(gids))
		for i, v := range gids {
			idxs[i] = vecIdx[v]
		}
		m.expandSend[d] = idxs
	}

	// Fold schedule: my present rows grouped by the row's vector owner;
	// symmetric receive from ranks holding nonzeros in my rows.
	m.foldSend = make([][]int, p)
	for ri, u := range m.rowGIDs {
		m.foldSend[parts[u]] = append(m.foldSend[parts[u]], ri)
	}
	// Receive side: for each owned vector entry u, the ranks holding
	// row-u nonzeros, each sending one partial per iteration, ordered
	// by gid within each src (matching sender's rowGIDs order).
	recvSets := make([]map[int64]struct{}, p)
	for s := range recvSets {
		recvSets[s] = make(map[int64]struct{})
	}
	for _, u := range m.vecGIDs {
		for _, v := range g.Neighbors(u) { // arc (u, v) lives at nzRank
			src := nzRank(layout, parts, pr, pc, u, v)
			recvSets[src][u] = struct{}{}
		}
	}
	m.foldRecv = make([][]int, p)
	for s := 0; s < p; s++ {
		gids := make([]int64, 0, len(recvSets[s]))
		for u := range recvSets[s] {
			gids = append(gids, u)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		idxs := make([]int, len(gids))
		for i, u := range gids {
			idxs[i] = vecIdx[u]
		}
		m.foldRecv[s] = idxs
	}

	// colGIDs is sorted (owner rank, gid), so per-source xbuf segments
	// are contiguous; colOff is their prefix index.
	m.colOff = make([]int, p+1)
	for _, v := range m.colGIDs {
		m.colOff[parts[v]+1]++
	}
	for r := 0; r < p; r++ {
		m.colOff[r+1] += m.colOff[r]
	}
	for d := 0; d < p; d++ {
		if d != me && len(m.expandSend[d]) > 0 {
			m.expandOut = append(m.expandOut, d)
		}
		if d != me && m.colOff[d+1] > m.colOff[d] {
			m.expandIn = append(m.expandIn, d)
		}
		if d != me && len(m.foldSend[d]) > 0 {
			m.foldOut = append(m.foldOut, d)
		}
	}
	return m, nil
}
