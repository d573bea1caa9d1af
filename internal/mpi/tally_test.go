package mpi

import (
	"math"
	"testing"
)

// newTestComm returns a 1-rank Comm for stats-only helpers.
func newTestComm(t *testing.T) *Comm {
	t.Helper()
	var out *Comm
	Run(1, func(c *Comm) { out = c })
	return out
}

func TestTallyRoundTripSparseAndDense(t *testing.T) {
	c := newTestComm(t)
	tally48 := make([]int64, 48)
	for i := 0; i < 48; i += 5 {
		tally48[i] = int64(i - 20) // 9 nonzero entries of 6+6 bits: 5 per element
	}
	cases := []struct {
		tally    []int64
		frameLen int
	}{
		{[]int64{0, 0, 0, 0}, 1},                            // all zero: single header element
		{[]int64{1, -2, 0, 7}, 2},                           // sparse: 3 entries of 2+4 bits in one element
		{[]int64{5, 5, 5, 5}, 2},                            // sparse even with every entry nonzero
		{[]int64{math.MaxInt64, 0, -3, 0}, 5},               // 2+64 bits per entry: dense fallback
		{[]int64{math.MinInt64}, 2},                         // 1-long tally: dense ties sparse, dense wins
		{[]int64{0, 1 << 50, 0, 0}, 2},                      // one 2+52-bit entry
		{[]int64{-(1 << 46), 1<<46 - 1, 0, 12345}, 4},       // 2+47 bits: one entry per element
		{tally48, 3},                                        // entries spill over two elements
		{[]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3}, 2}, // 4 index bits
	}
	payload := []int64{101, 102, 103}
	for _, tc := range cases {
		tally := tc.tally
		msg := AppendTally(c, append([]int64(nil), payload...), tally)
		if got := len(msg) - len(payload); got != tc.frameLen {
			t.Errorf("tally %v: frame of %d elements, want %d", tally, got, tc.frameLen)
		}
		got := make([]int64, len(tally))
		rest := SplitTally(msg, got)
		if len(rest) != len(payload) {
			t.Fatalf("tally %v: payload length %d after split, want %d", tally, len(rest), len(payload))
		}
		for i := range payload {
			if rest[i] != payload[i] {
				t.Fatalf("tally %v: payload corrupted at %d: %d", tally, i, rest[i])
			}
		}
		for i := range tally {
			if got[i] != tally[i] {
				t.Fatalf("tally %v decoded as %v", tally, got)
			}
		}
	}
}

func TestTallyAccumulatesIntoDst(t *testing.T) {
	c := newTestComm(t)
	dst := []int64{10, 20}
	msg := AppendTally(c, nil, []int64{1, -2})
	msg2 := AppendTally(c, nil, []int64{3, 4})
	SplitTally(msg, dst)
	SplitTally(msg2, dst)
	if dst[0] != 14 || dst[1] != 22 {
		t.Fatalf("accumulated tally = %v, want [14 22]", dst)
	}
}

func TestTallyZeroLengthIsNoop(t *testing.T) {
	c := newTestComm(t)
	buf := []int64{1, 2}
	out := AppendTally(c, buf, nil)
	if len(out) != 2 {
		t.Fatalf("zero-length tally appended %d elements", len(out)-2)
	}
	if rest := SplitTally(out, nil); len(rest) != 2 {
		t.Fatalf("zero-length split returned %d elements", len(rest))
	}
}

func TestTallyAllZeroCostsOneElement(t *testing.T) {
	c := newTestComm(t)
	before := c.Stats().TallyElems
	out := AppendTally(c, nil, make([]int64, 64))
	if len(out) != 1 {
		t.Fatalf("all-zero tally frame has %d elements, want 1", len(out))
	}
	if d := c.Stats().TallyElems - before; d != 1 {
		t.Fatalf("TallyElems grew by %d, want 1", d)
	}
}

func TestPackTallyEntryBounds(t *testing.T) {
	refuse := []struct {
		idx    int
		v      int64
		ib, vb int
		why    string
	}{
		{16, 0, 4, 8, "index 16 in 4 index bits"},
		{-1, 0, 4, 8, "negative index"},
		{7, 128, 4, 8, "value 128 (zigzag 256) in 8 value bits"},
		{7, -129, 4, 8, "value -129 (zigzag 257) in 8 value bits"},
		{0, 1, 1, 64, "an entry wider than 64 bits"},
	}
	for _, c := range refuse {
		if _, ok := packTallyEntry(c.idx, c.v, c.ib, c.vb); ok {
			t.Errorf("%s must not pack", c.why)
		}
	}
	for _, c := range []struct {
		idx    int
		v      int64
		ib, vb int
	}{
		{7, 0, 4, 8}, {15, 127, 4, 8}, {15, -128, 4, 8},
		{7, 1<<46 - 1, 15, 48}, {1<<15 - 1, -(1 << 46), 15, 48},
		{0, math.MaxInt64, 0, 64}, {0, math.MinInt64, 0, 64},
	} {
		p, ok := packTallyEntry(c.idx, c.v, c.ib, c.vb)
		if !ok {
			t.Fatalf("(%d, %d) should pack into %d+%d bits", c.idx, c.v, c.ib, c.vb)
		}
		if w := c.ib + c.vb; w < 64 && p >= 1<<w {
			t.Fatalf("(%d, %d) packed to %#x, wider than %d bits", c.idx, c.v, p, w)
		}
		if idx, got := unpackTallyEntry(p, c.vb); idx != c.idx || got != c.v {
			t.Fatalf("round trip (%d, %d) -> (%d, %d)", c.idx, c.v, idx, got)
		}
	}
}
