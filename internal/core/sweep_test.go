package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// touchedCase is one argmax input decoded from bytes, one per part
// (parts past the end are untouched): bit 0 marks the part touched,
// bits 1-2 give its count (0-3, so ties are common), bit 3 makes it
// fail its cap, and bits 4-7 give its weight in quarters (0 included).
type touchedCase struct {
	p       int
	x       int32
	touched []bool
	count   []int64
	capped  []bool
	weight  []float64
}

func decodeTouched(p int, x int, data []byte) touchedCase {
	tc := touchedCase{
		p: p, x: int32(x % p),
		touched: make([]bool, p), count: make([]int64, p),
		capped: make([]bool, p), weight: make([]float64, p),
	}
	for i := 0; i < p && i < len(data); i++ {
		b := data[i]
		tc.touched[i] = b&1 != 0
		if tc.touched[i] {
			tc.count[i] = int64(b>>1) & 3
		}
		tc.capped[i] = b&8 != 0
		tc.weight[i] = float64(b>>4) / 4
	}
	return tc
}

// load fills fresh counts and a mask the way a neighbor scan leaves
// them: counts only on touched parts, one mask bit per touched part.
func load[T int64 | float64](tc touchedCase) ([]T, []uint64) {
	counts := make([]T, tc.p)
	mask := make([]uint64, (tc.p+63)/64)
	for i, on := range tc.touched {
		if on {
			counts[i] = T(tc.count[i])
			mask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return counts, mask
}

// checkTouchedArgmax compares argmaxTouched with the full index-order
// scans it replaced, in the balance stages' weighted form and the
// refine stages' feasibility-gated form, and checks that it leaves the
// counts and the mask clear.
func checkTouchedArgmax(t *testing.T, tc touchedCase) {
	t.Helper()
	x := tc.x

	// Weighted form: weigh every part (capped parts drop to 0), then
	// take a strictly larger count in index order, starting from x's.
	full, _ := load[float64](tc)
	for i := range full {
		if tc.capped[i] {
			full[i] = 0
			continue
		}
		full[i] *= tc.weight[i]
	}
	wantW, wantBest := x, full[x]
	for i := range full {
		if full[i] > wantBest {
			wantBest, wantW = full[i], int32(i)
		}
	}
	counts, mask := load[float64](tc)
	gotW, gotBest, n := argmaxTouched(counts, mask, x, false, func(i int, c float64) float64 {
		if tc.capped[i] {
			return 0
		}
		return c * tc.weight[i]
	})
	if gotW != wantW || gotBest != wantBest {
		t.Fatalf("p=%d x=%d weighted: touched argmax (%d, %v), full scan (%d, %v)", tc.p, x, gotW, gotBest, wantW, wantBest)
	}
	checkCleared(t, tc, counts, mask, n)

	// Gated form: a part other than x is taken on a strictly larger
	// raw count only if it passes its cap; x's count is never gated.
	raw, _ := load[int64](tc)
	wantG, best := x, raw[x]
	for i := range raw {
		if raw[i] <= best || tc.capped[i] {
			continue
		}
		best, wantG = raw[i], int32(i)
	}
	icounts, imask := load[int64](tc)
	gotG, _, n := argmaxTouched(icounts, imask, x, true, func(i int, c int64) int64 {
		if int32(i) == x {
			t.Fatalf("p=%d x=%d gated: x's own count was scored", tc.p, x)
		}
		if tc.capped[i] {
			return 0
		}
		return c
	})
	if gotG != wantG {
		t.Fatalf("p=%d x=%d gated: touched argmax %d, full scan %d", tc.p, x, gotG, wantG)
	}
	checkCleared(t, tc, icounts, imask, n)
}

func checkCleared[T int64 | float64](t *testing.T, tc touchedCase, counts []T, mask []uint64, n int64) {
	t.Helper()
	var want int64
	for _, on := range tc.touched {
		if on {
			want++
		}
	}
	if n != want {
		t.Fatalf("p=%d: %d parts visited, %d touched", tc.p, n, want)
	}
	for i, c := range counts {
		if c != 0 {
			t.Fatalf("p=%d: count %d left at %v", tc.p, i, c)
		}
	}
	for k, m := range mask {
		if m != 0 {
			t.Fatalf("p=%d: mask word %d left at %#x", tc.p, k, m)
		}
	}
}

// touchedPs cover one part, the last part of a full mask word, a full
// word, the first part of a second word, and several words.
var touchedPs = []int{1, 63, 64, 65, 300}

// TestArgmaxTouchedMatchesFullScan: on random counts with ties and
// random cap failures, the touched-set argmax picks the part the old
// O(p) scans picked, in both forms, for every vertex part x.
func TestArgmaxTouchedMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range touchedPs {
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, p)
			r.Read(data)
			if trial%4 == 0 {
				// Sparse neighborhoods, as on a mesh.
				for i := range data {
					if r.Intn(8) != 0 {
						data[i] &^= 1
					}
				}
			}
			checkTouchedArgmax(t, decodeTouched(p, r.Intn(p), data))
		}
	}
}

// FuzzTouchedArgmax drives checkTouchedArgmax with arbitrary per-part
// bytes: sel picks p from touchedPs, x the vertex's own part.
func FuzzTouchedArgmax(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{1})
	f.Add(uint8(3), uint16(64), []byte{0x13, 0x13, 0x05, 0xff})
	f.Add(uint8(4), uint16(299), make([]byte, 300))
	f.Fuzz(func(t *testing.T, sel uint8, x uint16, data []byte) {
		p := touchedPs[int(sel)%len(touchedPs)]
		checkTouchedArgmax(t, decodeTouched(p, int(x), data))
	})
}

// TestPartScansFlatInP: at p=1024 a candidate examines at most p/10
// parts on average — its touched parts plus its share of the fallback
// scans and summary rebuilds that remain. The full-scan kernels
// examined at least 2p per candidate.
func TestPartScansFlatInP(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions mesh 32^3 and RMAT 14 into 1024 parts")
	}
	const p = 1024
	for _, tc := range []struct {
		name  string
		g     *gen.Generator
		ranks int
	}{
		{"mesh 32^3", gen.Grid3D(32, 32, 32), 1},
		{"mesh 32^3", gen.Grid3D(32, 32, 32), 2},
		{"RMAT 14", gen.RMAT(14, 8, 3), 2},
	} {
		t.Run(fmt.Sprintf("%s/%d ranks", tc.name, tc.ranks), func(t *testing.T) {
			_, rep := runPartition(t, tc.g, tc.ranks, DefaultOptions(p))
			if rep.Candidates == 0 {
				t.Fatal("no candidates counted")
			}
			per := float64(rep.PartScans) / float64(rep.Candidates)
			t.Logf("%d candidates, %d part scans: %.1f per candidate", rep.Candidates, rep.PartScans, per)
			if per > p/10 {
				t.Errorf("%.1f part scans per candidate, bound %d", per, p/10)
			}
		})
	}
}

// BenchmarkPartitionParts partitions mesh 32^3 on one rank at growing
// p and reports the sweeps' wall time per candidate, which should stay
// flat in p.
func BenchmarkPartitionParts(b *testing.B) {
	g := gen.Grid3D(32, 32, 32)
	for _, p := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var ns float64
			var scans, cands int64
			for i := 0; i < b.N; i++ {
				_, rep := runPartition(b, g, 1, DefaultOptions(p))
				ns += float64((rep.VertTime + rep.EdgeTime).Nanoseconds())
				scans += rep.PartScans
				cands += rep.Candidates
			}
			b.ReportMetric(ns/float64(cands), "ns/candidate")
			b.ReportMetric(float64(scans)/float64(cands), "parts/candidate")
		})
	}
}
