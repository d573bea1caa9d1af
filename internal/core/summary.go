package core

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// summary answers the balance stages' fallback queries: the best part
// other than a vertex's own under a per-part key. It is a tournament
// tree over the parts in heap layout (node 1 the root, part i's leaf at
// node n+i for n the power of two ≥ p), and every node holds the two
// best parts of its subtree by (key desc, index asc), -1 where absent.
// The root's pair is what one index-order scan of every part, taking
// strictly larger keys, keeps as its top two.
//
// A key reads the round's settled sizes and multipliers and its part's
// deltas cv (and ce). The settled sizes and multipliers change only
// between rounds, so a round start rebuilds the tree (rebuildSummary).
// A move changes the deltas of its two parts only and marks them in
// dirty (moved); a query first re-scores the marked leaves and the
// log2(n) nodes above each (other). A move marks its parts after
// updating their deltas, and a query takes the marks before it
// re-scores, so at more than one thread every answer reflects at least
// the moves that finished before the query began, never older sizes.
// The lock keeps queries from interleaving their re-scoring.
type summary struct {
	mu    sync.Mutex
	dirty []atomic.Uint64 // (p+63)/64 words: parts moved since last scored
	key   []float64       // part i's key, valid while a node holds i
	node  [][2]int32      // 2n nodes; node[0] is unused
}

func newSummary(p int) summary {
	n := 1 << bits.Len(uint(p-1))
	return summary{
		dirty: make([]atomic.Uint64, (p+63)/64),
		key:   make([]float64, p),
		node:  make([][2]int32, 2*n),
	}
}

// summaryKey is part i's key for the running balance round, ok false
// when the part takes no fallback move: it fails the vertex cap, or
// in vertBalance its underweight Wv = idealV/est − 1 is not positive.
// edgeBalance keys a part by its negated capped edge load
// se+capMult·ce, so the best key is the lightest load.
func (s *state) summaryKey(i int) (key float64, ok bool) {
	r := &s.rnd
	cvi := float64(atomic.LoadInt64(&s.cv[i]))
	if float64(s.sv[i])+r.capMult*cvi+1 > s.imbV {
		return 0, false
	}
	if r.edges {
		return -(float64(s.se[i]) + r.capMult*float64(atomic.LoadInt64(&s.ce[i]))), true
	}
	est := float64(s.sv[i]) + r.mult*cvi
	if est < 1 {
		est = 1
	}
	wv := r.idealV/est - 1
	return wv, wv > 0
}

// rebuildSummary scores every part for the round about to start and
// rebuilds the tree bottom-up, charging each node it computes to sc.
// The worker threads have not started, so it takes no lock.
func (s *state) rebuildSummary(sc *scratch) {
	t := &s.sum
	clear(t.dirty)
	n := len(t.node) / 2
	for i := 0; i < n; i++ {
		t.node[n+i] = s.leaf(i)
	}
	for k := n - 1; k >= 1; k-- {
		t.node[k] = t.merge(t.node[2*k], t.node[2*k+1])
	}
	sc.partScans += int64(2*n - 1)
}

// leaf scores part i (parts past p are absent) and returns its leaf.
func (s *state) leaf(i int) [2]int32 {
	if i < s.p {
		if key, ok := s.summaryKey(i); ok {
			s.sum.key[i] = key
			return [2]int32{int32(i), -1}
		}
	}
	return [2]int32{-1, -1}
}

// moved marks parts x and w for re-scoring after a balance move between
// them has updated their deltas.
func (s *state) moved(x, w int32) {
	d := s.sum.dirty
	d[x>>6].Or(1 << (uint32(x) & 63))
	d[w>>6].Or(1 << (uint32(w) & 63))
}

// merge returns the best two of a and b, each a node's pair. Every part
// in a has a lower index than every part in b, so b's parts win only
// with strictly larger keys.
func (t *summary) merge(a, b [2]int32) [2]int32 {
	switch {
	case b[0] < 0:
		return a
	case a[0] < 0:
		return b
	case t.key[b[0]] > t.key[a[0]]:
		if b[1] >= 0 && t.key[b[1]] > t.key[a[0]] {
			return b
		}
		return [2]int32{b[0], a[0]}
	case a[1] >= 0 && t.key[a[1]] >= t.key[b[0]]:
		return a
	default:
		return [2]int32{a[0], b[0]}
	}
}

// other re-scores the parts moves have marked, charging each node it
// recomputes to sc, and returns the best part other than x and its
// key, or -1 when no other part qualifies.
func (s *state) other(sc *scratch, x int32) (int32, float64) {
	t := &s.sum
	n := len(t.node) / 2
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.dirty {
		if t.dirty[k].Load() == 0 {
			continue
		}
		for m := t.dirty[k].Swap(0); m != 0; m &= m - 1 {
			i := k<<6 | bits.TrailingZeros64(m)
			t.node[n+i] = s.leaf(i)
			for j := (n + i) >> 1; j >= 1; j >>= 1 {
				t.node[j] = t.merge(t.node[2*j], t.node[2*j+1])
			}
			sc.partScans += int64(bits.Len(uint(n)))
		}
	}
	i := t.node[1][0]
	if i == x {
		i = t.node[1][1]
	}
	if i < 0 {
		return -1, 0
	}
	return i, t.key[i]
}

// underFor returns the vertBalance fallback receiver for a vertex in
// part x: the part of largest positive underweight Wv other than x,
// ties to the lower index, or x when no part qualifies.
func (s *state) underFor(sc *scratch, x int32) int32 {
	if i, _ := s.other(sc, x); i >= 0 {
		return i
	}
	return x
}

// lightestOther returns the smallest capped edge load se+capMult·ce
// over the parts other than x that the vertex cap admits (+Inf when
// there is none). Both edgeBalance fallback scans accept a part only if
// its load passes a test monotone in that load, so when the lightest
// fails, every part fails and the scan can be skipped without changing
// its answer.
func (s *state) lightestOther(sc *scratch, x int32) float64 {
	if i, key := s.other(sc, x); i >= 0 {
		return -key
	}
	return math.Inf(1)
}
