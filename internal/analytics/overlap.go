package analytics

import (
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Overlapped analytics engine. Every iteration of the
// label-propagation-style analytics (WCC, KC, LP) runs on the graph's
// delta exchanger in both exchange modes, with the same two ideas the
// partitioner uses:
//
//   - Split-phase rounds: every sweep relaxes boundary vertices first,
//     posts their new values with DeltaExchanger.BeginValues, relaxes
//     interior vertices — which read no ghost values — while the
//     messages are in flight, and settles ghosts at FlushValues.
//   - Convergence counters: with piggybacking on (async mode on a
//     complete rank neighborhood) the per-round changed-vertex count
//     rides the value messages as a tally frame, and the folded counter
//     is the exact global count (one round stale — the price is a
//     single trailing no-op round instead of one Allreduce per round).
//     Otherwise — sync mode, or any incomplete neighborhood — every
//     round ends in an exact Allreduce, the paper's schedule.
//
// BFS additionally pipelines its rounds on the wave engine
// (hc_waves.go): a lone BFS is one wave with two rounds in flight, and
// Harmonic Centrality batches depth/2 BFS waves onto the depth-k
// pipeline. Analytics with a final max reduction can ride it on the
// same tally frames (engine.aux, used by K-Core). A round-start hook
// (engine.pre) lets an analytic fold the settled ghost values into its
// own frozen state before the sweeps; WCC uses it to lower whole
// rank-local components at once. Every analytic drives the exchanger
// directly.

// engine bundles the exchange machinery of one analytic run: the
// graph's delta exchanger and whether convergence counters piggyback
// on its rounds.
type engine struct {
	g         *dgraph.Graph
	ex        *dgraph.DeltaExchanger
	piggyback bool // counters ride the messages (exact on this topology)

	// aux, when set before propagate, is an extra non-negative counter
	// piggybacked next to the convergence counter and max-combined
	// across ranks (TallyRound.Max). At the round that detects
	// convergence the propagated values are final, so the fold delivers
	// the analytic's global maximum for free — K-Core's coreness
	// maximum rides this instead of a trailing Allreduce. auxVal/auxOK
	// hold the result when the run terminated through the piggybacked
	// counter.
	aux    func() int64
	auxVal int64
	auxOK  bool

	// pre, when set before propagate, runs on the main goroutine at the
	// top of every round, after the previous round's ghost values have
	// settled and before any sweep. It may update state that relax
	// reads, which then stays frozen for the round — WCC folds ghost
	// labels into its local-component minima here.
	pre func()

	// Arenas reused across rounds.
	changed []int32
	payload []int64
	tally   [2]int64

	// Intra-rank parallel sweep machinery. Each relaxation sweep fans
	// the vertex list across threads with par.ForChunk; workers queue
	// (vertex, value) updates into per-thread lanes, which merge in
	// thread-id order — contiguous ascending chunks, so merged order is
	// ascending list order at every thread count — and are applied on
	// the main goroutine. sweepBody is the stored chunk body
	// (relaxChunk bound once at construction, so steady-state sweeps
	// allocate no closures); list and relax are the per-sweep inputs it
	// reads.
	threads   int
	q         *par.Queues[relaxUpd]
	recs      []relaxUpd
	list      []int32
	relax     func(v int32, tid int) (int64, bool)
	sweepBody func(lo, hi, tid int)
	sweepTime time.Duration

	// BFS parallel-expansion machinery (bfs.go): per-thread discovery
	// queues — owned vertices and ghosts separately — plus the stored
	// chunk body and its per-sweep inputs. Discovery uses a CAS on the
	// level array, so every same-round write carries the same value
	// (depth+1) and the winner is irrelevant: level arrays and frontier
	// SETS are bit-identical at every thread count.
	qNext      *par.Queues[int32]
	qGhost     *par.Queues[int32]
	ball       []int64
	bfrontier  []int32
	bdepth     int64
	bfilter    int8
	expandBody func(lo, hi, tid int)
}

// relaxUpd is one sweep update: vertex v takes value val when the
// sweep's records are applied.
type relaxUpd struct {
	v   int32
	val int64
}

// newEngine derives the engine from the graph's exchange mode: the one
// place the mode matters to the analytics. Building the exchanger is
// collective on the graph's first exchange; the completeness flag is a
// cached read after that.
func newEngine(g *dgraph.Graph) *engine {
	e := &engine{g: g, threads: g.Comm.Threads()}
	if e.threads < 1 {
		e.threads = 1
	}
	e.q = par.NewQueues[relaxUpd](e.threads)
	e.sweepBody = e.relaxChunk
	e.qNext = par.NewQueues[int32](e.threads)
	e.qGhost = par.NewQueues[int32](e.threads)
	e.expandBody = e.expandChunk
	e.ex = g.AsyncExchanger()
	e.piggyback = g.AsyncExchange() && e.ex.NeighborhoodComplete()
	return e
}

// relaxChunk relaxes the [lo, hi) slice of the current sweep list with
// thread-local scratch tid, queueing each changed vertex's new value.
// Workers only read round-frozen state and write their own lane, so
// chunks race on nothing; the merged records are applied on the main
// goroutine (see sweep/applySweep).
//
//repro:hotpath
func (e *engine) relaxChunk(lo, hi, tid int) {
	list, relax := e.list, e.relax
	for i := lo; i < hi; i++ {
		v := list[i]
		if nv, changed := relax(v, tid); changed {
			e.q.Push(tid, relaxUpd{v: v, val: nv})
		}
	}
}

// sweep fans list across the engine's threads and merges the
// per-thread update queues into e.recs in thread-id order.
//
//repro:timing
func (e *engine) sweep(list []int32) {
	start := time.Now()
	e.list = list
	par.ForChunk(0, len(list), e.threads, e.sweepBody)
	e.recs = e.q.MergeInto(e.recs[:0])
	e.sweepTime += time.Since(start)
}

// applySweep commits the merged sweep records: each vertex takes its
// new value and joins the changed list.
//
//repro:hotpath
func (e *engine) applySweep(vals []int64) {
	for _, r := range e.recs {
		vals[r.v] = r.val
		e.changed = append(e.changed, r.v)
	}
}

// propagate runs label-propagation-style rounds over vals: each round
// relaxes every owned vertex in boundary-first order (relax returns
// v's candidate value and whether it changed), ships the changed
// boundary values owner → ghost, and stops when no vertex changed
// anywhere or after maxIters rounds (maxIters <= 0: unbounded). It
// returns the number of rounds executed.
//
// Rounds are two phase-Jacobi sweeps: the boundary sweep computes
// updates from the round-start state and applies them all at once,
// then the interior sweep computes from round-start + applied-boundary
// state. relax must therefore be pure — read vals and state that stays
// frozen during the sweeps (anything e.pre updates at round start),
// return the new value — never write either; the engine commits
// updates between phases. That phase discipline is what makes the
// parallel sweeps exact: every worker reads the same frozen state
// regardless of chunk boundaries, so per-round state and the fixed
// point are bit-identical across thread counts AND across modes (the
// mode changes only how the counter settles). Interior vertices relax
// while the boundary messages are in flight. A piggybacked termination
// counter is one round stale (the count shipped with round r's messages
// is round r-1's), so convergence costs one extra no-op round, which by
// definition changes nothing.
func (e *engine) propagate(vals []int64, relax func(v int32, tid int) (int64, bool), maxIters int) int {
	g := e.g
	bnd, inr := g.BoundaryVertices(), g.InteriorVertices()
	iters := 0
	e.relax = relax

	prevLocal := int64(1) // round 0 "changed something": never converged at entry
	for maxIters <= 0 || iters < maxIters {
		iters++
		if e.pre != nil {
			e.pre()
		}
		e.changed = e.changed[:0]
		e.sweep(bnd)
		e.applySweep(vals)
		e.payload = e.payload[:0]
		for _, v := range e.changed {
			e.payload = append(e.payload, vals[v])
		}
		var tally []int64
		if e.piggyback {
			e.tally[0] = prevLocal
			tally = e.tally[:1]
			if e.aux != nil {
				e.tally[1] = e.aux()
				tally = e.tally[:2]
			}
		}
		ex := e.ex
		ex.BeginValues(e.changed, e.payload, tally)
		// Overlap: interior relaxations read no ghost values, so they
		// run while the drainer receives. (BeginValues consumed the
		// boundary prefix, so appending is safe.)
		e.sweep(inr)
		e.applySweep(vals)
		outL, outP, tr := ex.FlushValues()
		for i, lid := range outL {
			vals[lid] = outP[i]
		}
		local := int64(len(e.changed))
		if e.piggyback {
			if tr.Sum(0) == 0 {
				// The counter certifies the PREVIOUS round changed
				// nothing anywhere, which makes the round just executed
				// a global no-op: report the same productive-round
				// count as the per-round Allreduce. Values have been
				// final since that previous round, so the aux frames
				// carried by this round's messages fold to the
				// analytic's global maximum.
				if e.aux != nil {
					e.auxVal, e.auxOK = tr.Max(1), true
				}
				iters--
				break
			}
			prevLocal = local
		} else if mpi.AllreduceScalar(g.Comm, local, mpi.Sum) == 0 {
			break
		}
	}
	return iters
}
