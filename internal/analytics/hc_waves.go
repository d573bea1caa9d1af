package analytics

import (
	"repro/internal/dgraph"
	"repro/internal/mpi"
)

// The overlapped BFS engine: every BFS sweep runs here, in both
// modes. HC runs one full distributed BFS per source, and the sources
// are completely independent — yet a sequential loop pays every source
// the full round-trip latency of every BFS level, one after another. This
// engine batches sources into k concurrent waves that share one deep
// exchange pipeline: each wave keeps its discovery-push round and its
// ghost-refresh round in flight, so with the exchanger built at depth
// d (Graph.SetPipeDepth) HC runs k = d/2 waves (HCWaves) and the
// pipeline holds d rounds while each rank sweeps the waves' frontiers
// back to back. A single BFS (BFS, SCC's sweeps, ApproxDiameter) is the
// one-wave case: one source, k = 1, two rounds in flight.
//
// The schedule is a fixed four-phase cycle over the batch's wave slots
// (skipping inactive ones), which keeps the exchanger's FIFO flush
// discipline intact — posts and flushes walk the slots in the same
// order, so the oldest pending round is always the one being settled:
//
//	phase P: per wave — expand boundary frontier, BeginPush the
//	         discoveries, expand interior frontier
//	         (pipeline now holds k refreshes + k pushes = 2k rounds)
//	phase F: per wave — FlushValues the wave's refresh from the
//	         PREVIOUS cycle: correct stale ghost copies, fold the
//	         wave's termination counter
//	phase M: per wave — FlushPush: merge remote discoveries
//	         first-discovery-wins into the next frontier
//	phase V: per wave — BeginValues the new frontier's levels, with
//	         the frontier size riding as the wave's termination counter
//
// Every wave's rounds are stamped with its slot as the round tag's
// wave id (DeltaExchanger.SetRoundWave), so a skewed schedule panics
// naming the wave and the round. Every wave runs the same per-source
// schedule whatever k is: same expansion order, same one-cycle ghost
// staleness, same first-discovery-wins merge — so its levels are
// bit-identical to a solo BFS, and because HC accumulates the
// per-source contributions in source order after each batch completes,
// the centralities are bit-identical to a one-source-at-a-time loop's
// float sums at every depth and in both modes.
//
// Termination is per wave, tested one cycle late (one trailing empty
// cycle per wave, which expands nothing) on the frontier size the
// wave's refresh carried: piggybacked on the refresh in async mode on a
// complete rank neighborhood, otherwise one exact Allreduce per wave
// and round — wave round counts are identical on every rank, so the
// collective schedule stays agreed. A finished wave goes quiet (posts
// nothing, flushes nothing) while its batch mates drain; slots refill
// only at batch boundaries, which is what keeps the order of the done
// callbacks — and therefore HC's float sums — deterministic.
//
// With piggybacking a wave costs ZERO reductions: the engine never
// needs eccentricities, so HC pays none, and a solo BFS pays only
// bfsRun's final eccentricity Allreduce.

// bfsWave is one BFS wave's private state: its level array, frontier,
// and termination bookkeeping. Waves share the exchanger pipeline but
// nothing else.
type bfsWave struct {
	all      []int64
	frontier []int32
	rd       bfsRound
	tally    [1]int64 // per-wave: BeginValues aliases it until the flush
	prevLen  int64
	depth    int64
	pendingV bool
	active   bool
	done     bool
}

// reset re-arms the wave for a new source.
func (w *bfsWave) reset(g *dgraph.Graph, src int64) {
	w.frontier = seedLevels(g, w.all, src, w.frontier[:0])
	w.prevLen, w.depth = 0, 0
	w.pendingV, w.done = false, false
	w.active = true
}

// HCWaves reports how many BFS waves HarmonicCentrality runs
// concurrently on g: half the exchange pipeline depth (each wave keeps
// one push and one refresh round in flight).
//
//repro:deterministic
func HCWaves(g *dgraph.Graph) int {
	// PipeDepth is at least dgraph.MinPipeDepth = 2, so k >= 1.
	return min(g.PipeDepth()/2, mpi.MaxTagWave+1)
}

// bfsWaves is the overlapped BFS engine: it runs one BFS per source as
// batches of k concurrent waves on the exchanger pipeline and calls
// done with each source's owned-vertex levels, in source order. The
// levels alias the wave's arena, which the next batch overwrites, so
// done must consume them before returning unless theirs is the last
// batch. k = 1 is the solo BFS (bfsRun).
func bfsWaves(g *dgraph.Graph, e *engine, sources []int64, k int, done func(levels []int64)) {
	ex := e.ex
	waves := make([]*bfsWave, k)
	for i := range waves {
		waves[i] = &bfsWave{all: make([]int64, g.NTotal())}
	}
	for lo := 0; lo < len(sources); lo += k {
		batch := sources[lo:min(lo+k, len(sources))]
		active := len(batch)
		for slot, s := range batch {
			waves[slot].reset(g, s)
		}
		for active > 0 {
			// Phase P: post every active wave's discovery push. Only
			// boundary vertices have ghost neighbors, so the boundary
			// prefix of the frontier feeds the push. The wave's own
			// refresh from the previous cycle may still be in flight,
			// so a ghost copy read here can be one cycle stale; the
			// resulting redundant push claims a level no smaller than
			// the owner's (rounds are level-synchronous), and the
			// owner's first-discovery-wins merge drops it.
			for slot, w := range waves[:len(batch)] {
				if !w.active {
					continue
				}
				w.rd = bfsRound{next: make([]int32, 0, len(w.frontier))}
				ex.SetRoundWave(slot)
				e.expandFrontier(&w.rd, w.all, w.frontier, w.depth, bfsBoundaryOnly)
				ex.BeginPush(w.rd.ghostFound, w.rd.ghostLevels, nil)
				e.expandFrontier(&w.rd, w.all, w.frontier, w.depth, bfsInteriorOnly)
			}
			// Phase F: settle the refreshes posted last cycle (the
			// oldest rounds in the pipeline), oldest slot first. Owner
			// levels are authoritative, so applying them after this
			// cycle's expansion only corrects stale ghost copies.
			for _, w := range waves[:len(batch)] {
				if !w.active || !w.pendingV {
					continue
				}
				outL, outP, tr := ex.FlushValues()
				for i, lid := range outL {
					w.all[lid] = outP[i]
				}
				w.pendingV = false
				if e.piggyback {
					w.done = tr.Sum(0) == 0
				} else {
					w.done = mpi.AllreduceScalar(g.Comm, w.prevLen, mpi.Sum) == 0
				}
			}
			// Phase M: settle the pushes, merge discoveries
			// first-discovery-wins. A wave whose previous frontier was
			// certified globally empty expanded nothing this cycle —
			// its push was empty on every rank — and retires with the
			// pipeline drained of its rounds.
			for _, w := range waves[:len(batch)] {
				if !w.active {
					continue
				}
				recvL, recvP, _ := ex.FlushPush()
				if w.done {
					w.active = false
					active--
					continue
				}
				for i, lid := range recvL {
					if w.all[lid] < 0 {
						w.all[lid] = recvP[i]
						w.rd.next = append(w.rd.next, lid)
					}
				}
			}
			// Phase V: refresh each surviving wave's new frontier on
			// the ghosting ranks, frontier size riding as the wave's
			// termination counter; it settles mid-next-cycle.
			for slot, w := range waves[:len(batch)] {
				if !w.active {
					continue
				}
				next := w.rd.next
				ex.SetRoundWave(slot)
				// BeginValues copies the payload out before it returns,
				// so every wave shares the engine's payload arena.
				e.payload = e.payload[:0]
				for _, v := range next {
					e.payload = append(e.payload, w.all[v])
				}
				var tally []int64
				if e.piggyback {
					w.tally[0] = int64(len(next))
					tally = w.tally[:1]
				}
				ex.BeginValues(next, e.payload, tally)
				w.pendingV = true
				w.prevLen = int64(len(next))
				w.depth++
				w.frontier = next
			}
		}
		// The whole batch has drained, and slots hold the batch in
		// source order, so done sees the sources in source order.
		for slot := range batch {
			done(waves[slot].all[:g.NLocal])
		}
	}
	ex.SetRoundWave(0)
}
