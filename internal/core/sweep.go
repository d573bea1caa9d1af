package core

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// scratch is one worker thread's candidate-evaluation state. state
// keeps one per thread (indexed by par's tid) for the whole Partition
// call, so rounds allocate none of it.
//
// A candidate's neighbor scan adds into wcount (balance stages) or
// icount (refine stages) and sets each part it adds to in the touched
// mask. Weighting, caps, argmax and clearing then visit only the set
// bits (argmaxTouched), so a candidate costs O(deg + touched parts),
// not O(p). Between candidates every count is zero and the mask empty.
type scratch struct {
	wcount []float64
	icount []int64
	mask   []uint64 // (p+63)/64 words, bit i set when part i was touched
	cands  []int32  // initBFS's distinct neighbor parts

	// built is the state's move count when the fallback summaries were
	// last rebuilt. A balance move by any thread and the start of a
	// round (sizes and multiplier change at settles) advance that
	// count, and the next query rebuilds, so a summary answers from
	// the sizes after the last completed move.
	built int64
	// under holds vertBalance's fallback receivers: the two parts of
	// largest underweight Wv > 0 under the vertex cap, ties to the
	// lower index, -1 where absent.
	under [2]int32
	// light holds edgeBalance's two smallest capped edge loads
	// se+capMult·ce over parts under the vertex cap (+Inf where
	// absent), and lightIdx the part holding light[0].
	light    [2]float64
	lightIdx int32

	// candidates counts the vertices whose neighborhood was scored;
	// partScans the (candidate, part) pairs examined: once per touched
	// part, p per full fallback scan or summary rebuild.
	candidates, partScans int64

	_ [64]byte // keeps neighboring threads' fields off one cache line
}

func newScratch(p int) scratch {
	return scratch{
		wcount: make([]float64, p),
		icount: make([]int64, p),
		mask:   make([]uint64, (p+63)/64),
		built:  -1,
	}
}

// touch records part pu in the touched mask; branch-free, so setting a
// bit that is already set costs the same as a new one.
func (sc *scratch) touch(pu int32) {
	sc.mask[pu>>6] |= 1 << (uint32(pu) & 63)
}

// scanWeighted counts candidate v (in part x) and adds each neighbor's
// degree into wcount under the neighbor's part, touching that part.
// The leading run of neighbors in x sums in a register, so a vertex
// whose whole neighborhood lies in x, which no other part can win,
// stores nothing and leaves nothing to clear; scanWeighted then
// reports false, charging one part scan for x.
func (sc *scratch) scanWeighted(s *state, v, x int32) bool {
	sc.candidates++
	nbrs := s.g.Neighbors(v)
	parts, cnt, deg := s.parts, sc.wcount, s.g.Degrees
	var own float64
	k := 0
	for ; k < len(nbrs) && atomic.LoadInt32(&parts[nbrs[k]]) == x; k++ {
		own += float64(deg[nbrs[k]])
	}
	if k == len(nbrs) {
		sc.partScans++
		return false
	}
	if k > 0 {
		cnt[x] = own
		sc.touch(x)
	}
	for _, u := range nbrs[k:] {
		pu := atomic.LoadInt32(&parts[u])
		cnt[pu] += float64(deg[u])
		sc.touch(pu)
	}
	return true
}

// scanCounts is scanWeighted for the refine stages: it counts each
// neighbor once into icount. Here a vertex is decided once the leading
// run in x reaches half its neighbors, since a move needs a part with
// strictly more.
func (sc *scratch) scanCounts(s *state, v, x int32) bool {
	sc.candidates++
	nbrs := s.g.Neighbors(v)
	parts, cnt := s.parts, sc.icount
	k := 0
	for ; k < len(nbrs) && atomic.LoadInt32(&parts[nbrs[k]]) == x; k++ {
	}
	if 2*k >= len(nbrs) {
		sc.partScans++
		return false
	}
	if k > 0 {
		cnt[x] = int64(k)
		sc.touch(x)
	}
	for _, u := range nbrs[k:] {
		pu := atomic.LoadInt32(&parts[u])
		cnt[pu]++
		sc.touch(pu)
	}
	return true
}

// argmaxTouched scores the touched parts and returns the best one for
// a vertex in part x, clearing the counts and the mask it visits. The
// running best starts at x's own score (0 when x is untouched) and a
// part replaces it only with a strictly larger score, visited in
// ascending index order: the tie rule of a full index-order scan.
// Untouched parts hold count 0 and score(i, c) must be non-negative,
// so none of them could win, and skipping them changes nothing. It
// also returns the number of touched parts.
//
// gated declares the refine form, where score(i, c) is c or 0 (c when
// part i passes its caps): x keeps its raw count, and score is called
// only for parts whose count beats the running best, as the full scan
// evaluated caps only there.
func argmaxTouched[T int64 | float64](counts []T, mask []uint64, x int32, gated bool, score func(i int, c T) T) (w int32, best T, touched int64) {
	w = x
	if mask[x>>6]&(1<<(uint32(x)&63)) != 0 {
		if gated {
			best = counts[x]
		} else {
			best = score(int(x), counts[x])
		}
	}
	for k, m := range mask {
		if m == 0 {
			continue
		}
		mask[k] = 0
		touched += int64(bits.OnesCount64(m))
		for ; m != 0; m &= m - 1 {
			i := k<<6 | bits.TrailingZeros64(m)
			c := counts[i]
			counts[i] = 0
			if int32(i) == x || gated && c <= best {
				continue
			}
			if sc := score(i, c); sc > best {
				best, w = sc, int32(i)
			}
		}
	}
	return w, best, touched
}

// underFor returns the vertBalance fallback receiver for a vertex in
// part x, or x when no other part qualifies. A stale summary (see
// summaryStale) is first rebuilt: over the parts the vertex cap admits, the two largest
// Wv = idealV/est − 1 > 0 in (Wv desc, index asc) order. The first of
// them that is not x is what a scan of every other part in index order,
// taking strictly larger Wv, returns.
func (s *state) underFor(sc *scratch, x int32, mult, capMult, idealV float64) int32 {
	if s.summaryStale(sc) {
		sc.under = [2]int32{-1, -1}
		var top [2]float64 // Wv of under[0], under[1]; 0 admits only Wv > 0
		for i := 0; i < s.p; i++ {
			cvi := float64(atomic.LoadInt64(&s.cv[i]))
			if float64(s.sv[i])+capMult*cvi+1 > s.imbV {
				continue
			}
			est := float64(s.sv[i]) + mult*cvi
			if est < 1 {
				est = 1
			}
			switch wv := idealV/est - 1; {
			case wv > top[0]:
				top[1], sc.under[1] = top[0], sc.under[0]
				top[0], sc.under[0] = wv, int32(i)
			case wv > top[1]:
				top[1], sc.under[1] = wv, int32(i)
			}
		}
		sc.partScans += int64(s.p)
	}
	for _, i := range sc.under {
		if i != x {
			if i < 0 {
				return x
			}
			return i
		}
	}
	return x
}

// lightestOther returns the smallest capped edge load se+capMult·ce
// over the parts other than x that the vertex cap admits (+Inf when
// there is none). A stale summary is first rebuilt: the two smallest
// loads and the part holding the smallest. Both edgeBalance fallback
// scans accept a part only if its load passes a test monotone in that
// load, so when the lightest fails, every part fails and the scan can
// be skipped without changing its answer.
func (s *state) lightestOther(sc *scratch, x int32, capMult float64) float64 {
	if s.summaryStale(sc) {
		sc.light = [2]float64{math.Inf(1), math.Inf(1)}
		sc.lightIdx = -1
		for i := 0; i < s.p; i++ {
			cvi := float64(atomic.LoadInt64(&s.cv[i]))
			if float64(s.sv[i])+capMult*cvi+1 > s.imbV {
				continue
			}
			e := float64(s.se[i]) + capMult*float64(atomic.LoadInt64(&s.ce[i]))
			if e < sc.light[0] {
				sc.light[1] = sc.light[0]
				sc.light[0], sc.lightIdx = e, int32(i)
			} else if e < sc.light[1] {
				sc.light[1] = e
			}
		}
		sc.partScans += int64(s.p)
	}
	if sc.lightIdx != x {
		return sc.light[0]
	}
	return sc.light[1]
}

// summaryStale reports whether sc's fallback summaries predate the
// state's last move or round start, and if so records the current
// move count as the one the caller is about to rebuild them at. The
// count is read before the rebuild and advanced after a move's size
// updates, so a move that lands during a rebuild marks the summaries
// stale again. At one thread that is exactly after each of the
// thread's own moves.
func (s *state) summaryStale(sc *scratch) bool {
	n := atomic.LoadInt64(&s.moves)
	if n == sc.built {
		return false
	}
	sc.built = n
	return true
}

// moved advances the move count after a balance move has updated the
// part sizes, marking every thread's fallback summaries stale.
func (s *state) moved() {
	atomic.AddInt64(&s.moves, 1)
}

// beginRound marks every thread's fallback summaries stale, since the
// settle that ended the previous round changed the sizes they derive
// from.
func (s *state) beginRound() {
	s.moved()
}
