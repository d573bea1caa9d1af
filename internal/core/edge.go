package core

import (
	"sync/atomic"

	"repro/internal/par"
)

// moveEdgeDeltas records the tallies of moving owned vertex v from part
// x to part w during the edge stage: vertex and degree deltas plus the
// exact per-part incident-cut deltas derived from v's current
// neighborhood labels.
func (s *state) moveEdgeDeltas(v int32, x, w int32) {
	g := s.g
	atomic.AddInt64(&s.cv[x], -1)
	atomic.AddInt64(&s.cv[w], 1)
	d := g.Degree(v)
	atomic.AddInt64(&s.ce[x], -d)
	atomic.AddInt64(&s.ce[w], d)
	for _, u := range g.Neighbors(v) {
		switch s.loadPart(u) {
		case x: // internal edge becomes cut: both x and w gain one
			atomic.AddInt64(&s.cc[x], 1)
			atomic.AddInt64(&s.cc[w], 1)
		case w: // cut edge becomes internal: both x and w lose one
			atomic.AddInt64(&s.cc[x], -1)
			atomic.AddInt64(&s.cc[w], -1)
		default: // stays cut; incidence shifts from x to w
			atomic.AddInt64(&s.cc[x], -1)
			atomic.AddInt64(&s.cc[w], 1)
		}
	}
}

// edgeBalance implements the edge-balancing stage (§III.E): the vertex
// weighting Wv is replaced by the combination Re·We(i) + Rc·Wc(i) of an
// edge-balance weight and a cut-balance weight. Re ramps up linearly
// while the edge constraint is violated, then freezes while Rc ramps to
// shift pressure onto minimizing and balancing the per-part cut.
func (s *state) edgeBalance() {
	g := s.g
	s.recountSizes(true)
	// Hard receiver caps use the worst-case multiplier; see vertBalance.
	s.rnd = round{capMult: float64(g.Comm.Size()), re: 1, rc: 1, edges: true}

	for iter := 0; iter < s.opt.Ibal; iter++ {
		s.rnd.maxC = maxOf(s.sc, 1)
		var sumC int64
		for _, c := range s.sc {
			sumC += c
		}
		s.rnd.avgC = float64(sumC) / float64(s.p)
		s.rnd.mult = s.mult()
		if maxOf(s.se, 0) > s.imbE {
			s.rnd.re++
		} else {
			s.rnd.rc++
		}
		s.q.Reset()
		s.ex.BeginTally(s.roundTallyLen(true))

		s.rebuildSummary(&s.scr[0])
		par.ForChunk(0, g.NLocal, s.threads(), s.ebalBody)

		moved := s.exchangeSettle(s.merged(), true)
		s.trace("ebal", s.rnd.mult, moved)
		s.iterTot++
	}
}

// edgeBalanceChunk is edgeBalance's sweep over owned vertices [lo, hi)
// on worker tid.
func (s *state) edgeBalanceChunk(lo, hi, tid int) {
	g := s.g
	sc := &s.scr[tid]
	r := s.rnd
	var dv float64
	weigh := func(i int, c float64) float64 {
		cvi := float64(atomic.LoadInt64(&s.cv[i]))
		cei := float64(atomic.LoadInt64(&s.ce[i]))
		// Receivers are capped at the vertex and edge targets so the
		// balance achieved by earlier stages cannot be destroyed here.
		if float64(s.sv[i])+r.capMult*cvi+1 > s.imbV ||
			float64(s.se[i])+r.capMult*cei+dv > s.imbE {
			return 0
		}
		estE := float64(s.se[i]) + r.mult*cei
		estC := float64(s.sc[i]) + r.mult*float64(atomic.LoadInt64(&s.cc[i]))
		if estE < 1 {
			estE = 1
		}
		if estC < 1 {
			estC = 1
		}
		we := s.imbE/estE - 1
		if we < 0 {
			we = 0
		}
		wc := r.maxC/estC - 1
		if wc < 0 {
			wc = 0
		}
		return c * (r.re*we + r.rc*wc)
	}
	for vi := lo; vi < hi; vi++ {
		v := int32(vi)
		x := s.loadPart(v)
		// Only vertices in parts that are overweight in edges or carry
		// an above-average cut participate: parts within budget never
		// bleed out during balancing.
		estEx := float64(s.se[x]) + r.mult*float64(atomic.LoadInt64(&s.ce[x]))
		estCx := float64(s.sc[x]) + r.mult*float64(atomic.LoadInt64(&s.cc[x]))
		overE := estEx > s.imbE
		overC := estCx > r.avgC
		if !overE && !overC {
			continue
		}
		dv = float64(g.Degree(v))
		w, best := x, 0.0
		if sc.scanWeighted(s, v, x) {
			var n int64
			w, best, n = argmaxTouched(sc.wcount, sc.mask, x, false, weigh)
			sc.partScans += n
		}
		if (w == x || best <= 0) && overE {
			// No weighted neighbor candidate: teleport toward the most
			// edge-underweight part that can take v. Every receiver
			// needs capped load + dv ≤ Imbe; if the lightest part other
			// than x misses it, the scan cannot find one.
			w = x
			if s.lightestOther(sc, x)+dv <= s.imbE {
				sc.partScans += int64(s.p)
				bestW := 0.0
				for i := 0; i < s.p; i++ {
					if int32(i) == x {
						continue
					}
					cvi := float64(atomic.LoadInt64(&s.cv[i]))
					cei := float64(atomic.LoadInt64(&s.ce[i]))
					if float64(s.sv[i])+r.capMult*cvi+1 > s.imbV ||
						float64(s.se[i])+r.capMult*cei+dv > s.imbE {
						continue
					}
					estE := float64(s.se[i]) + r.mult*cei
					if estE < 1 {
						estE = 1
					}
					if we := s.imbE/estE - 1; we > bestW {
						bestW = we
						w = int32(i)
					}
				}
			}
		}
		if w == x && overE {
			// Still stuck: every candidate receiver is at the edge
			// target. This happens when hub degrees are comparable to
			// (or above) the target itself, making the constraint
			// locally infeasible. Take a strictly balance-improving move
			// instead: a part that stays well below the donor even after
			// receiving v (estE + 2·deg(v) ≤ estX prevents
			// ping-ponging). The scan starts at a vertex-dependent
			// rotation so concurrent hub evictions spread over distinct
			// receivers instead of all piling onto the single lightest
			// part. Both conditions are monotone in the receiver's
			// capped load, so the lightest part other than x decides
			// whether any part passes.
			if m := s.lightestOther(sc, x); m <= s.imbE && m+2*dv <= estEx {
				sc.partScans += int64(s.p)
				start := int(uint64(g.L2G[v]) % uint64(s.p))
				for k := 0; k < s.p; k++ {
					i := (start + k) % s.p
					if int32(i) == x {
						continue
					}
					cvi := float64(atomic.LoadInt64(&s.cv[i]))
					if float64(s.sv[i])+r.capMult*cvi+1 > s.imbV {
						continue
					}
					estE := float64(s.se[i]) + r.capMult*float64(atomic.LoadInt64(&s.ce[i]))
					if estE+2*dv <= estEx && estE <= s.imbE {
						w = int32(i)
						break
					}
				}
			}
		}
		if w != x {
			s.moveEdgeDeltas(v, x, w)
			s.storePart(v, w)
			s.push(tid, v, w)
			s.moved(x, w)
		}
	}
}

// edgeRefine is the final refinement (§III.E): plurality label
// propagation constrained so a move cannot push any part's vertex
// count, edge count, or incident-cut count beyond the current global
// maxima (or targets, whichever is larger).
func (s *state) edgeRefine() {
	s.beginRefine(true)
	for iter := 0; iter < s.opt.Iref; iter++ {
		s.refineRound(true)
	}
}

// edgeRefineChunk is edgeRefine's sweep over owned vertices [lo, hi) on
// worker tid.
func (s *state) edgeRefineChunk(lo, hi, tid int) {
	g := s.g
	sc := &s.scr[tid]
	mult, maxC := s.rnd.mult, s.rnd.maxC
	var dv int64
	// Moves must respect the vertex and edge targets and may not raise
	// any part's incident cut beyond the current global maximum. Gated
	// parts score 0 and never win.
	var refused bool
	gate := func(i int, c int64) int64 {
		estV := float64(s.sv[i]) + mult*float64(atomic.LoadInt64(&s.cv[i]))
		estE := float64(s.se[i]) + mult*float64(atomic.LoadInt64(&s.ce[i]))
		estC := float64(s.sc[i]) + mult*float64(atomic.LoadInt64(&s.cc[i]))
		cutAfter := float64(dv - c) // arcs leaving part i from v
		if estV+1 > s.imbV || estE+float64(dv) > s.imbE || estC+cutAfter > maxC {
			refused = true
			return 0
		}
		return c
	}
	for vi := s.nextScan(lo, hi); vi < hi; vi = s.nextScan(vi+1, hi) {
		v := int32(vi)
		s.markClean(v)
		x := s.loadPart(v)
		if !sc.scanCounts(s, v, x) {
			continue
		}
		dv = g.Degree(v)
		refused = false
		w, _, n := argmaxTouched(sc.icount, sc.mask, x, true, gate)
		sc.partScans += n
		switch {
		case w != x:
			s.moveEdgeDeltas(v, x, w)
			s.storePart(v, w)
			s.push(tid, v, w)
			s.unsettle(v)
		case refused:
			s.markDirty(v)
		}
	}
}
