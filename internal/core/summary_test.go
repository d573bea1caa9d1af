package core

import (
	"math"
	"math/rand"
	"testing"
)

// summaryPs cover one part, two, the last part of a full mask word, a
// full word, the first part of a second word, and a tree whose leaves
// are not a power of two.
var summaryPs = []int{1, 2, 63, 64, 65, 300}

// underRef is vertBalance's fallback receiver by one index-order scan
// of every part other than x: the largest positive Wv under the vertex
// cap, ties to the lower index, or x when none qualifies.
func underRef(s *state, x int32) int32 {
	w, best := x, 0.0
	for i := 0; i < s.p; i++ {
		cvi := float64(s.cv[i])
		if int32(i) == x || float64(s.sv[i])+s.rnd.capMult*cvi+1 > s.imbV {
			continue
		}
		est := max(1, float64(s.sv[i])+s.rnd.mult*cvi)
		if wv := s.rnd.idealV/est - 1; wv > best {
			best, w = wv, int32(i)
		}
	}
	return w
}

// lightRef is the smallest capped edge load over the parts other than
// x under the vertex cap, by one scan of every part.
func lightRef(s *state, x int32) float64 {
	m := math.Inf(1)
	for i := 0; i < s.p; i++ {
		if int32(i) == x || float64(s.sv[i])+s.rnd.capMult*float64(s.cv[i])+1 > s.imbV {
			continue
		}
		m = min(m, float64(s.se[i])+s.rnd.capMult*float64(s.ce[i]))
	}
	return m
}

// checkSummary builds a balance round over p parts from data, then
// applies the moves data encodes, and after the rebuild and after each
// move compares the summary's answers with underRef and lightRef. Sizes
// are small multiples, so equal keys (ties) are common, and the vertex
// cap refuses some parts.
func checkSummary(t *testing.T, p int, edges bool, data []byte) {
	t.Helper()
	k := 0
	next := func() int64 {
		if k >= len(data) {
			return 0
		}
		k++
		return int64(data[k-1])
	}
	s := &state{
		p:  p,
		sv: make([]int64, p), se: make([]int64, p),
		cv: make([]int64, p), ce: make([]int64, p),
		sum:  newSummary(p),
		imbV: 60,
		rnd:  round{capMult: 2, idealV: 40, edges: edges},
	}
	s.rnd.mult = float64(1 + next()%3)
	for i := 0; i < p; i++ {
		b := next()
		s.sv[i], s.se[i] = 10*(b&7), 20*(b>>3&7)
	}
	sc := &scratch{}
	check := func(x int32) {
		t.Helper()
		if edges {
			if got, want := s.lightestOther(sc, x), lightRef(s, x); got != want {
				t.Fatalf("p=%d x=%d: lightest other load %v, full scan %v", p, x, got, want)
			}
			return
		}
		if got, want := s.underFor(sc, x), underRef(s, x); got != want {
			t.Fatalf("p=%d x=%d: underweight receiver %d, full scan %d", p, x, got, want)
		}
	}
	s.rebuildSummary(sc)
	for x := 0; x < p; x++ {
		check(int32(x))
	}
	for k+3 <= len(data) {
		x, w, d := int32(next()%int64(p)), int32(next()%int64(p)), next()%5
		if x == w {
			continue
		}
		s.cv[x]--
		s.cv[w]++
		s.ce[x] -= d
		s.ce[w] += d
		s.moved(x, w)
		check(x)
		check(w)
		check(int32(d) % int32(p))
	}
}

// TestSummaryMatchesFullScan: on random sizes and move sequences, the
// summary's fallback answers equal those of a full scan of every part,
// in both balance stages' forms.
func TestSummaryMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range summaryPs {
		for trial := 0; trial < 50; trial++ {
			data := make([]byte, 1+p+3*200)
			r.Read(data)
			checkSummary(t, p, trial%2 == 1, data)
		}
	}
}

// FuzzSummary drives checkSummary with arbitrary bytes: sel picks p
// from summaryPs and the stage.
func FuzzSummary(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 0, 1})
	f.Add(uint8(5), []byte{0, 0x3f, 0x3f, 0x09, 1, 2, 3, 2, 1, 4})
	f.Add(uint8(10), make([]byte, 400))
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		checkSummary(t, summaryPs[int(sel)%len(summaryPs)], sel/uint8(len(summaryPs))%2 == 1, data)
	})
}
