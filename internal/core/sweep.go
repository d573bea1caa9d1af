package core

import (
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

	// candidates counts the vertices whose neighborhood was scored;
	// partScans the (candidate, part) pairs examined: once per touched
	// part, p per full fallback scan, and one per summary node a
	// rebuild or a move recomputes.
	candidates, partScans int64

	_ [64]byte // keeps neighboring threads' fields off one cache line
}

func newScratch(p int) scratch {
	return scratch{
		wcount: make([]float64, p),
		icount: make([]int64, p),
		mask:   make([]uint64, (p+63)/64),
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

// The refine sweeps skip every owned vertex whose clean bit is set. The
// bit says the vertex was last found locally stable, no other part
// holding strictly more of its neighbors than its own, and that no
// neighbor has changed part since. Stability reads labels only, never
// sizes or caps, and a stable vertex's scan moves nothing and calls no
// cap gate, so skipping it is exact. A round sets the bit before it
// scans the vertex (markClean) and keeps it when the scan finds the
// vertex stable; a move clears it on the mover and its owned neighbors
// after storing the new label (unsettle). A neighbor's move either
// lands before the scan reads it, or clears the bit after the scan set
// it, so a set bit is never stale at round end, at any thread count.
// Ghost neighbors change only at settles, which mark them in
// ghostMoved; a clean vertex that ships (that some peer ghosts, and by
// symmetry that has ghost neighbors) rescans when one of those is
// marked. Bits clear when each refine stage starts, since balance moves
// do not maintain them.

// settled reports whether a refine round may skip owned vertex v.
func (s *state) settled(v int32) bool {
	if s.clean[v>>6].Load()&(1<<(uint32(v)&63)) == 0 {
		return false
	}
	if !s.ghostsMoved || !s.ex.Ships(v) {
		return true
	}
	n := int32(s.g.NLocal)
	for _, u := range s.g.Neighbors(v) {
		if gi := u - n; gi >= 0 && s.ghostMoved[gi>>6]&(1<<(uint32(gi)&63)) != 0 {
			return false
		}
	}
	return true
}

// nextScan returns the first owned vertex in [v, hi) that a refine
// round may not skip, or hi. Without marked ghosts it skips whole runs
// of set clean bits a word at a time.
func (s *state) nextScan(v, hi int) int {
	for ; v < hi; v++ {
		if s.ghostsMoved {
			if !s.settled(int32(v)) {
				return v
			}
			continue
		}
		if m := ^s.clean[v>>6].Load() >> (uint(v) & 63); m != 0 {
			return min(v+bits.TrailingZeros64(m), hi)
		}
		v |= 63
	}
	return hi
}

// markClean sets owned vertex v's clean bit ahead of its scan.
func (s *state) markClean(v int32) {
	s.clean[v>>6].Or(1 << (uint32(v) & 63))
}

// markDirty clears owned vertex v's clean bit.
func (s *state) markDirty(v int32) {
	s.clean[v>>6].And(^(1 << (uint32(v) & 63)))
}

// unsettle clears the clean bits of owned vertex v, which has just
// changed part, and of its owned neighbors.
func (s *state) unsettle(v int32) {
	s.markDirty(v)
	n := int32(s.g.NLocal)
	for _, u := range s.g.Neighbors(v) {
		if u < n {
			s.markDirty(u)
		}
	}
}
