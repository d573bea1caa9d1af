package core

import (
	"sync/atomic"

	"repro/internal/par"
)

// vertBalance implements Algorithm 4: degree-weighted label propagation
// with the weighting function Wv(i) ≈ Imbv / size_estimate(i) − 1 and
// the dynamic multiplier damping concurrent moves into a part.
func (s *state) vertBalance() {
	g := s.g
	s.recountSizes(false)
	// Balance drives part sizes toward the ideal n/p, not merely under
	// the constraint cap Imbv: the slack between ideal and cap is the
	// headroom the edge-balancing stage needs to shift edge weight
	// without violating the vertex constraint.
	//
	// Hard receiver caps always assume the worst case — every rank adds
	// as much as this one (capMult = nprocs) — so a part can never be
	// pushed past its cap within one iteration. The scheduled mult only
	// shapes the attraction weights, ramping movement freedom down as
	// iterations progress (the paper's X/Y schedule).
	s.rnd = round{
		idealV:  float64(g.NGlobal) / float64(s.p),
		capMult: float64(g.Comm.Size()),
	}

	for iter := 0; iter < s.opt.Ibal; iter++ {
		s.rnd.maxV = maxOf(s.sv, s.imbV)
		s.rnd.mult = s.mult()
		s.q.Reset()
		s.ex.BeginTally(s.roundTallyLen(false))

		s.rebuildSummary(&s.scr[0])
		par.ForChunk(0, g.NLocal, s.threads(), s.vbalBody)

		moved := s.exchangeSettle(s.merged(), false)
		s.trace("vbal", s.rnd.mult, moved)
		s.iterTot++
	}
}

// vertBalanceChunk is vertBalance's sweep over owned vertices [lo, hi)
// on worker tid.
func (s *state) vertBalanceChunk(lo, hi, tid int) {
	sc := &s.scr[tid]
	r := s.rnd
	weigh := func(i int, c float64) float64 {
		cvi := float64(atomic.LoadInt64(&s.cv[i]))
		if float64(s.sv[i])+r.capMult*cvi+1 > r.maxV {
			return 0
		}
		est := float64(s.sv[i]) + r.mult*cvi
		if est < 1 {
			est = 1
		}
		w := r.idealV/est - 1
		if w < 0 {
			w = 0
		}
		return c * w
	}
	for vi := lo; vi < hi; vi++ {
		v := int32(vi)
		x := s.loadPart(v)
		// Balancing moves vertices out of overweight parts only; a part
		// within its budget never loses vertices here, which keeps
		// parts alive and flow monotone from over- to underweight
		// parts.
		estX := float64(s.sv[x]) + r.mult*float64(atomic.LoadInt64(&s.cv[x]))
		if estX <= r.idealV {
			continue
		}
		// Apply caps and weights, then take the argmax. A vertex whose
		// neighbors all lie in x skips both and goes to the fallback.
		w, best := x, 0.0
		if sc.scanWeighted(s, v, x) {
			var n int64
			w, best, n = argmaxTouched(sc.wcount, sc.mask, x, false, weigh)
			sc.partScans += n
		}
		if w == x || best <= 0 {
			// No underweight part appears in v's neighborhood (it may
			// be empty, or far away). Fall back to the globally most
			// underweight part so the balance phase always converges;
			// refinement restores cut quality afterwards.
			w = s.underFor(sc, x)
		}
		if w != x {
			atomic.AddInt64(&s.cv[x], -1)
			atomic.AddInt64(&s.cv[w], 1)
			s.storePart(v, w)
			s.push(tid, v, w)
			s.moved(x, w)
		}
	}
}

// vertRefine implements Algorithm 5: unweighted label propagation
// (each vertex adopts its neighborhood's plurality part) constrained so
// no part exceeds Max(current max size, Imbv) under the multiplier
// estimate — a constrained FM-style refinement of the global cut.
func (s *state) vertRefine() {
	s.beginRefine(false)
	for iter := 0; iter < s.opt.Iref; iter++ {
		s.refineRound(false)
	}
}

// beginRefine starts a refine stage: it recounts the sizes, sets the
// stage's multiplier and clears every clean bit, since the balance
// stage before it moved vertices without maintaining them.
//
// Refinement uses the worst-case multiplier nprocs for its receiver
// caps: every rank assumes its peers add as much as it does. Unlike
// balancing, refinement cannot shed from overweight parts (plurality
// keeps interiors), so an early-schedule overshoot here would persist
// to the final partition.
func (s *state) beginRefine(withEdges bool) {
	s.recountSizes(withEdges)
	s.rnd = round{mult: float64(s.g.Comm.Size())}
	clear(s.clean)
}

// refineRound runs one round of the vertex (withEdges false) or edge
// refine stage and settles it.
func (s *state) refineRound(withEdges bool) {
	s.q.Reset()
	s.ex.BeginTally(s.roundTallyLen(withEdges))
	stage, body := "vref", s.vrefBody
	if withEdges {
		s.rnd.maxC = maxOf(s.sc, 1)
		stage, body = "eref", s.erefBody
	}
	par.ForChunk(0, s.g.NLocal, s.threads(), body)

	moved := s.exchangeSettle(s.merged(), withEdges)
	s.trace(stage, s.rnd.mult, moved)
	s.iterTot++
}

// vertRefineChunk is vertRefine's sweep over owned vertices [lo, hi) on
// worker tid.
func (s *state) vertRefineChunk(lo, hi, tid int) {
	sc := &s.scr[tid]
	mult := s.rnd.mult
	// A move may not push the receiving part above the vertex target
	// Imbv: refinement only rearranges within the balance envelope.
	// Gated parts score 0 and never win.
	var refused bool
	gate := func(i int, c int64) int64 {
		if float64(s.sv[i])+mult*float64(atomic.LoadInt64(&s.cv[i]))+1 > s.imbV {
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
		refused = false
		w, _, n := argmaxTouched(sc.icount, sc.mask, x, true, gate)
		sc.partScans += n
		switch {
		case w != x:
			atomic.AddInt64(&s.cv[x], -1)
			atomic.AddInt64(&s.cv[w], 1)
			s.storePart(v, w)
			s.push(tid, v, w)
			s.unsettle(v)
		case refused:
			s.markDirty(v)
		}
	}
}
