package core

import (
	"sync/atomic"
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// state bundles everything a partitioning run shares across stages.
type state struct {
	g   *dgraph.Graph
	opt Options
	p   int

	// ex is the graph's delta exchanger; every boundary exchange runs
	// on it in both modes.
	ex *dgraph.DeltaExchanger

	// piggyback records whether settles ride on the update messages
	// instead of a per-iteration Allreduce: async mode on a complete
	// rank neighborhood (detected collectively at startup), where the
	// own+neighbor tally sums are exactly the global sums. Elsewhere
	// the piggybacked tallies would miss non-neighbor ranks, so
	// settles Allreduce exactly.
	piggyback bool

	// q holds each round's moves, one lane per worker thread, and qbuf
	// is the merged queue a round hands the exchanger. Both live for
	// the whole Partition call, so rounds reuse their capacity instead
	// of allocating (push, merged).
	q    *par.Queues[dgraph.Update]
	qbuf []dgraph.Update

	// scr is each worker thread's sweep scratch (counts, touched mask,
	// work counters), indexed by par's tid; tally is the reused
	// per-round delta tally takeTally fills.
	scr   []scratch
	tally []int64

	// rnd is the running balance or refine round's parameters, and the
	// four sweep bodies, bound once per Partition call, read them, so
	// no round allocates a worker closure.
	rnd                                    round
	vbalBody, vrefBody, ebalBody, erefBody func(lo, hi, tid int)

	// sum is the balance stages' fallback summary (summary.go). The
	// padding keeps its lock's cache line apart from the fields the
	// sweeps read.
	_   [64]byte
	sum summary
	_   [64]byte

	// clean holds one bit per owned vertex that a refine round may skip
	// (settled), and ghostMoved one bit per ghost the last settle
	// changed; ghostsMoved reports whether any bit of it is set.
	clean       []atomic.Uint64
	ghostMoved  []uint64
	ghostsMoved bool

	// parts holds assignments for owned and ghost vertices. Hot-loop
	// reads and writes go through atomics because intra-rank threads
	// update it asynchronously (the paper's "asynchronous intra-task
	// updates").
	parts []int32

	// Part size estimates (global, replicated per rank) and the
	// per-iteration change tallies the multiplier damps.
	sv []int64 // vertices per part
	se []int64 // edge endpoints (degree sum) per part
	sc []int64 // cut edges incident per part
	cv []int64 // vertex deltas this iteration (atomic)
	ce []int64 // edge deltas this iteration (atomic)
	cc []int64 // cut deltas this iteration (atomic)

	// Multiplier schedule: iterTot counts inner iterations within the
	// current outer stage group; iTot is Iouter*(Ibal+Iref).
	iterTot int
	iTot    int

	// Constraint targets.
	imbV float64 // max vertices per part
	imbE float64 // max edge endpoints per part
}

// round holds one balance or refine round's parameters, set before its
// sweep starts.
type round struct {
	mult    float64 // size-estimate multiplier (refine: nprocs)
	capMult float64 // balance receiver caps' multiplier, nprocs
	idealV  float64 // vertBalance's target part size n/p
	maxV    float64 // vertBalance's vertex cap, max(largest part, Imbv)
	maxC    float64 // largest incident cut, floored at 1 (edge stages)
	avgC    float64 // mean incident cut (edgeBalance)
	re, rc  float64 // edgeBalance's edge and cut weight ramps
	edges   bool    // the summary keys edge loads (edgeBalance)
}

// Partition runs XtraPuLP on the distributed graph shard g. It is a
// collective call: every rank of g.Comm must invoke it with identical
// options. It returns the part assignment for this rank's owned and
// ghost vertices (length g.NTotal()) and a run report.
//
//repro:deterministic
//repro:timing
func Partition(g *dgraph.Graph, opt Options) ([]int32, Report, error) {
	if err := opt.validate(); err != nil {
		return nil, Report{}, err
	}
	s := newState(g, opt)
	opt = s.opt

	var rep Report
	before := g.Comm.Stats()
	start := time.Now()

	t0 := time.Now()
	rep.InitIters = s.initialize()
	rep.InitTime = time.Since(t0)

	// Outer loop 1: vertex balance + refinement (Algorithm 1).
	t0 = time.Now()
	s.iterTot = 0
	for outer := 0; outer < opt.Iouter; outer++ {
		s.vertBalance()
		s.vertRefine()
	}
	rep.VertTime = time.Since(t0)

	// Outer loop 2: edge balance + refinement.
	if !opt.SingleConstraint {
		t0 = time.Now()
		s.iterTot = 0
		for outer := 0; outer < opt.Iouter; outer++ {
			s.edgeBalance()
			s.edgeRefine()
		}
		rep.EdgeTime = time.Since(t0)
	}

	rep.TotalTime = time.Since(start)
	after := g.Comm.Stats()
	rep.ReductionOps = after.ReductionOps - before.ReductionOps
	rep.SendOps = after.SendOps - before.SendOps
	var cand, scans int64
	for i := range s.scr {
		cand += s.scr[i].candidates
		scans += s.scr[i].partScans
	}
	tot := mpi.Allreduce(g.Comm, []int64{after.ElemsSent - before.ElemsSent, cand, scans}, mpi.Sum)
	rep.ExchangeVolume, rep.Candidates, rep.PartScans = tot[0], tot[1], tot[2]
	rep.Quality = dgraph.EvaluateDistributed(g, s.parts, s.p)
	return s.parts, rep, nil
}

// newState sets up one Partition call's state for g under validated
// options: every buffer the rounds reuse, the constraint targets, and
// the graph's exchanger (collective on the graph's first call).
func newState(g *dgraph.Graph, opt Options) *state {
	if int64(opt.NumParts) > g.NGlobal && g.NGlobal > 0 {
		opt.NumParts = int(g.NGlobal)
	}
	s := &state{
		g:          g,
		opt:        opt,
		p:          opt.NumParts,
		parts:      make([]int32, g.NTotal()),
		sv:         make([]int64, opt.NumParts),
		se:         make([]int64, opt.NumParts),
		sc:         make([]int64, opt.NumParts),
		cv:         make([]int64, opt.NumParts),
		ce:         make([]int64, opt.NumParts),
		cc:         make([]int64, opt.NumParts),
		iTot:       opt.Iouter * (opt.Ibal + opt.Iref),
		q:          par.NewQueues[dgraph.Update](g.Comm.Threads()),
		scr:        make([]scratch, g.Comm.Threads()),
		tally:      make([]int64, 3*opt.NumParts),
		sum:        newSummary(opt.NumParts),
		clean:      make([]atomic.Uint64, (g.NLocal+63)/64),
		ghostMoved: make([]uint64, (g.NGhost+63)/64),
	}
	for i := range s.scr {
		s.scr[i] = newScratch(s.p)
	}
	s.vbalBody, s.vrefBody = s.vertBalanceChunk, s.vertRefineChunk
	s.ebalBody, s.erefBody = s.edgeBalanceChunk, s.edgeRefineChunk
	s.imbV = (1 + opt.VertImbalance) * float64(g.NGlobal) / float64(s.p)
	s.imbE = (1 + opt.EdgeImbalance) * float64(2*g.MGlobal) / float64(s.p)
	// Shared with the analytics engines: collective on the first call
	// per graph, cached after.
	s.ex = g.AsyncExchanger()
	s.piggyback = opt.Exchange == ExchangeAsyncDelta && s.ex.NeighborhoodComplete()
	return s
}

// mult computes the dynamic multiplier for the current iteration,
// mult = nprocs × ((X−Y)·iter_tot/I_tot + Y), floored at 1: a value
// below 1 would make each rank's size estimate sv + mult·cv undertrack
// even its own local moves, letting receivers overshoot their targets
// within a single iteration (visible at small rank counts where
// nprocs·Y < 1).
func (s *state) mult() float64 {
	frac := 0.0
	if s.iTot > 0 {
		frac = float64(s.iterTot) / float64(s.iTot)
	}
	m := float64(s.g.Comm.Size()) * ((s.opt.X-s.opt.Y)*frac + s.opt.Y)
	if m < 1 {
		m = 1
	}
	return m
}

// threads returns the intra-rank worker budget.
func (s *state) threads() int { return s.g.Comm.Threads() }

// loadPart atomically reads a part label.
func (s *state) loadPart(v int32) int32 {
	return atomic.LoadInt32(&s.parts[v])
}

// storePart atomically writes a part label.
func (s *state) storePart(v int32, w int32) {
	atomic.StoreInt32(&s.parts[v], w)
}

// roundTallyLen is the tally length the next balance/refine exchange
// round carries in piggyback mode (0 otherwise): per-part vertex
// deltas, plus edge and cut deltas during the edge stages.
func (s *state) roundTallyLen(withEdges bool) int {
	if !s.piggyback {
		return 0
	}
	return s.tallyLen(withEdges)
}

// tallyLen is the length of an iteration's delta tally, [cv] or
// [cv | ce | cc].
func (s *state) tallyLen(withEdges bool) int {
	if withEdges {
		return 3 * s.p
	}
	return s.p
}

// recountSizes recomputes the global part sizes sv/se/sc from current
// assignments (used when entering a stage), and zeroes the deltas.
func (s *state) recountSizes(withCut bool) {
	local := make([]int64, 3*s.p)
	for v := 0; v < s.g.NLocal; v++ {
		pv := s.parts[v]
		local[pv]++
		local[s.p+int(pv)] += s.g.Degree(int32(v))
		if withCut {
			for _, u := range s.g.Neighbors(int32(v)) {
				if s.parts[u] != pv {
					local[2*s.p+int(pv)]++
				}
			}
		}
	}
	global := mpi.Allreduce(s.g.Comm, local, mpi.Sum)
	copy(s.sv, global[0:s.p])
	copy(s.se, global[s.p:2*s.p])
	copy(s.sc, global[2*s.p:3*s.p])
	for i := 0; i < s.p; i++ {
		s.cv[i], s.ce[i], s.cc[i] = 0, 0, 0
	}
}

// trace emits a TraceEvent on rank 0 if tracing is configured.
func (s *state) trace(stage string, mult float64, moved int64) {
	if s.opt.Trace == nil || s.g.Comm.Rank() != 0 {
		return
	}
	var maxV, maxE, maxC int64
	for i := 0; i < s.p; i++ {
		if s.sv[i] > maxV {
			maxV = s.sv[i]
		}
		if s.se[i] > maxE {
			maxE = s.se[i]
		}
		if s.sc[i] > maxC {
			maxC = s.sc[i]
		}
	}
	s.opt.Trace(TraceEvent{
		Stage: stage, Iter: s.iterTot, Mult: mult,
		MaxVerts: maxV, MaxEdges: maxE, MaxCut: maxC, Moved: moved,
	})
}

// push queues worker tid's move of owned vertex v to part w, unless v
// is interior: no peer ghosts it, so its update would ship nowhere and
// leaving it out changes no message.
func (s *state) push(tid int, v, w int32) {
	if s.ex.Ships(v) {
		s.q.Push(tid, dgraph.Update{LID: v, Value: w})
	}
}

// merged concatenates the round's queued moves into the pooled merge
// buffer and empties the lanes. The exchanger encodes the buffer into
// its own send buffers before Flush returns, so the next round may
// overwrite it.
func (s *state) merged() []dgraph.Update {
	s.qbuf = s.q.MergeInto(s.qbuf[:0])
	return s.qbuf
}

// applyGhostUpdates writes received boundary updates into parts and
// marks the changed ghosts in ghostMoved, replacing the last settle's
// marks.
func (s *state) applyGhostUpdates(recv []dgraph.Update) {
	clear(s.ghostMoved)
	s.ghostsMoved = len(recv) > 0
	n := int32(s.g.NLocal)
	for _, upd := range recv {
		s.storePart(upd.LID, upd.Value)
		gi := upd.LID - n
		s.ghostMoved[gi>>6] |= 1 << (uint32(gi) & 63)
	}
}

// takeTally snapshots this iteration's local part-size deltas into the
// reused tally vector ([cv] or [cv | ce | cc]) and zeroes the counters.
// The worker threads have joined by the time it runs, so the reads need
// no atomics. The vector is overwritten by the next round's takeTally.
func (s *state) takeTally(withEdges bool) []int64 {
	t := s.tally[:s.tallyLen(withEdges)]
	copy(t[:s.p], s.cv)
	if withEdges {
		copy(t[s.p:2*s.p], s.ce)
		copy(t[2*s.p:], s.cc)
	}
	for i := 0; i < s.p; i++ {
		s.cv[i], s.ce[i], s.cc[i] = 0, 0, 0
	}
	return t
}

// exchangeSettle finishes one balance/refine iteration (the
// end-of-iteration block of Algorithms 4 and 5, extended with edge and
// cut tallies): it ships the queued updates, applies the incoming ghost
// updates, and folds the iteration's global part-size deltas into the
// estimates. In piggyback mode the global deltas are this rank's tally
// plus the neighbors' tallies riding the update messages, which the
// complete rank neighborhood makes exact; otherwise they are an
// Allreduce of the tally. It returns the number of vertices that
// changed parts globally.
func (s *state) exchangeSettle(q []dgraph.Update, withEdges bool) int64 {
	d := s.takeTally(withEdges)
	if s.piggyback {
		in, recv := s.ex.FlushTally(q, d)
		s.applyGhostUpdates(in)
		for i := range d {
			d[i] += recv[i]
		}
	} else {
		s.applyGhostUpdates(s.ex.Flush(q))
		d = mpi.Allreduce(s.g.Comm, d, mpi.Sum)
	}
	var moved int64
	for i := 0; i < s.p; i++ {
		s.sv[i] += d[i]
		if d[i] > 0 {
			moved += d[i]
		}
		if withEdges {
			s.se[i] += d[s.p+i]
			s.sc[i] += d[2*s.p+i]
		}
	}
	return moved
}

// initTallyLen is the tally length initBFS propagation rounds carry:
// one element (the rank's assignment counter) when the complete rank
// neighborhood makes the piggybacked sum an exact termination test.
func (s *state) initTallyLen() int {
	if s.piggyback {
		return 1
	}
	return 0
}

// exchangeInitCount finishes one initBFS propagation round: it ships
// the queued updates, applies incoming ghosts, and returns the global
// number of assignments made this round — from the piggybacked
// counters when exact, else by Allreduce.
func (s *state) exchangeInitCount(q []dgraph.Update, local int64) int64 {
	if s.initTallyLen() > 0 {
		in, t := s.ex.FlushTally(q, []int64{local})
		s.applyGhostUpdates(in)
		return local + t[0]
	}
	s.applyGhostUpdates(s.ex.Flush(q))
	return mpi.AllreduceScalar(s.g.Comm, local, mpi.Sum)
}

// maxOf returns max(vals) as float64, floored at floor.
func maxOf(vals []int64, floor float64) float64 {
	m := floor
	for _, v := range vals {
		if f := float64(v); f > m {
			m = f
		}
	}
	return m
}
