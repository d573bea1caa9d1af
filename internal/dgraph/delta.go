package dgraph

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/mpi"
)

// Delta-only boundary exchange, the graph's one boundary-exchange
// transport. This file precomputes the boundary structure once per
// graph — for every neighbor rank, the gid-sorted list of vertices
// shared with it — so updates name their vertex by an index into the
// shared list and travel over nonblocking point-to-point messages.
// Three flows ride the same plan, all split-phase (post, overlap
// compute, settle):
//
//   - Update flow (Begin/Flush, BeginTally/FlushTally): 32-bit part
//     labels packed one element per update, with the receive side
//     drained on a background goroutine while the rank's worker
//     threads are still propagating labels, and an optional
//     piggybacked tally frame (mpi.AppendTally) that lets a round
//     double as the iteration's reduction.
//   - Value flow (BeginValues/FlushValues): full 64-bit payloads
//     owner → ghost, for the analytics engines (Graph.ExchangeInt64
//     is one blocking round of it). Begin posts the sends and the
//     drainer; the caller computes interior work while messages are
//     in flight and settles ghosts at Flush.
//   - Reverse flow (BeginPush/FlushPush): full 64-bit payloads
//     ghost → owner, for frontier algorithms (the BFS wave engine).
//
// Value rounds carry their tally frames per source (TallyRound)
// instead of pre-summed, so float partial sums can be folded in global
// rank order — bit-identical to the Allreduce they replace.
//
// Every round runs on a persistent per-exchanger drainer goroutine and
// reusable encode/decode arenas, with transfer copies drawn from the
// mpi world's buffer pool (Isend64/Recv64/Recycle64): a steady-state
// round performs zero heap allocations on either side.
//
// Rounds are pipelined to a construction-time depth k (Graph's
// SetPipeDepth knob, default DefaultPipeDepth): further Begin* calls
// may be posted while up to k-1 earlier rounds are still unflushed, so
// k rounds of messages are in flight at once and a flush settles the
// OLDEST pending round. Each round carries a monotone sequence number
// — composed with an optional caller-set wave id (SetRoundWave) into
// an mpi round tag, asserted on receive so skewed pipelines fail
// loudly — and the drainer cycles its decode arenas modulo the depth,
// which is what stretches the aliasing contract from "valid until the
// next round is posted" to "valid for depth-1 subsequent rounds".

// ghostTarget records one destination of an owned boundary vertex:
// which neighbor (by position in the plan's sendRanks) ghosts it and
// at which index it sits in the pair's shared gid-sorted list.
type ghostTarget struct {
	rankPos int32
	idx     int32
}

// boundaryPlan is the precomputed per-neighbor boundary structure of
// one rank. Both sides of every rank pair derive the same shared
// vertex list independently (sorted by gid), which is what lets an
// update name its vertex by list index instead of by global id.
type boundaryPlan struct {
	// sendRanks are the neighbor ranks that ghost at least one owned
	// vertex, ascending.
	sendRanks []int32
	// sendLists[i] holds the owned lids shared with sendRanks[i] in
	// increasing gid order.
	sendLists [][]int32
	// targetOff and targets are a CSR over owned vertices: owned vertex
	// v occupies the (neighbor, index) slots
	// targets[targetOff[v]:targetOff[v+1]], none for interior vertices.
	targetOff []int64
	targets   []ghostTarget
	// recvRanks are the neighbor ranks owning at least one ghost,
	// ascending (equal to sendRanks by symmetry of the undirected
	// graph, but derived independently from the ghost set).
	recvRanks []int32
	// recvLists[i] holds the ghost lids owned by recvRanks[i] in
	// increasing gid order — index-compatible with the owner's
	// sendLists entry for this rank.
	recvLists [][]int32
	// ghostRankPos[i] and ghostIdx[i] locate ghost NLocal+i in the
	// receive-side structure: its owner's position in recvRanks and its
	// index in that pair's shared list. They are the reverse-flow
	// (ghost → owner) counterpart of targets.
	ghostRankPos []int32
	ghostIdx     []int32
}

// newBoundaryPlan derives the plan from purely local structure; no
// communication happens. Correctness rests on a symmetry of the CSR
// build: owned vertex v is ghosted on rank r exactly when v has a
// neighbor owned by r, so both endpoints of a rank pair can enumerate
// the same shared set in gid order. Every per-rank list is a window of
// one flat array, sized by a counting pass before it is filled.
func newBoundaryPlan(g *Graph) *boundaryPlan {
	nprocs := g.Comm.Size()
	p := &boundaryPlan{targetOff: make([]int64, g.NLocal+1)}

	// Send side: owned vertices in lid order are already gid-sorted.
	// eachOwner calls fn once per distinct owner rank of v's ghosts.
	seen := make([]int32, nprocs) // last owned lid visited per rank, +1
	eachOwner := func(v int, fn func(r int32)) {
		for _, u := range g.Neighbors(int32(v)) {
			if !g.IsGhost(u) {
				continue
			}
			r := g.GhostOwner[int(u)-g.NLocal]
			if seen[r] != int32(v)+1 {
				seen[r] = int32(v) + 1
				fn(r)
			}
		}
	}
	sendLen := make([]int32, nprocs)
	nTargets := 0
	for v := 0; v < g.NLocal; v++ {
		eachOwner(v, func(r int32) {
			sendLen[r]++
			nTargets++
		})
	}
	var sendPos []int32
	p.sendRanks, p.sendLists, sendPos = windows(sendLen)
	p.targets = make([]ghostTarget, nTargets)
	clear(seen)
	clear(sendLen)
	n := int64(0)
	for v := 0; v < g.NLocal; v++ {
		eachOwner(v, func(r int32) {
			pos := sendPos[r]
			p.sendLists[pos][sendLen[r]] = int32(v)
			p.targets[n] = ghostTarget{rankPos: pos, idx: sendLen[r]}
			sendLen[r]++
			n++
		})
		p.targetOff[v+1] = n
	}

	// Receive side: a gid-ordered scan of the build's index lists each
	// owner's ghosts in the owner's enumeration order.
	recvLen := make([]int32, nprocs)
	for _, r := range g.GhostOwner {
		recvLen[r]++
	}
	var recvPos []int32
	p.recvRanks, p.recvLists, recvPos = windows(recvLen)
	clear(recvLen)
	p.ghostRankPos = make([]int32, g.NGhost)
	p.ghostIdx = make([]int32, g.NGhost)
	for _, x := range g.index {
		lid := int(x) - 1
		if lid < g.NLocal {
			continue
		}
		gi := lid - g.NLocal
		r := g.GhostOwner[gi]
		pos := recvPos[r]
		p.recvLists[pos][recvLen[r]] = int32(lid)
		p.ghostRankPos[gi] = pos
		p.ghostIdx[gi] = recvLen[r]
		recvLen[r]++
	}
	return p
}

// windows lays out one list per rank of nonzero length as windows of
// one flat array, in rank order. It returns those ranks, their
// windows, and each rank's position among them.
func windows(lens []int32) (ranks []int32, lists [][]int32, pos []int32) {
	total := 0
	for _, n := range lens {
		total += int(n)
	}
	flat := make([]int32, total)
	pos = make([]int32, len(lens))
	for r, n := range lens {
		if n == 0 {
			continue
		}
		pos[r] = int32(len(ranks))
		ranks = append(ranks, int32(r))
		lists = append(lists, flat[:n:n])
		flat = flat[n:]
	}
	return ranks, lists, pos
}

// packUpdate encodes (index in shared list, part value) as one int64,
// half the volume of a (gid, value) pair.
func packUpdate(idx int32, value int32) int64 {
	return int64(uint64(uint32(idx))<<32 | uint64(uint32(value)))
}

// unpackUpdate reverses packUpdate.
func unpackUpdate(w int64) (idx int32, value int32) {
	return int32(uint32(uint64(w) >> 32)), int32(uint32(uint64(w)))
}

// roundKind discriminates the three split-phase round types.
type roundKind int8

// Round kinds.
const (
	roundNone roundKind = iota
	roundUpdates
	roundValuesFwd
	roundValuesRev
)

// DefaultPipeDepth is the default pipeline depth: how many rounds may
// be in flight per exchanger at once when the graph does not select a
// deeper pipeline with SetPipeDepth. At the default, a Begin* may be
// posted while at most one earlier round is still unflushed. The
// drainer cycles its decode arenas modulo the configured depth.
const DefaultPipeDepth = 2

// MinPipeDepth is the smallest accepted pipeline depth. Depth 1 would
// forbid posting a round behind a pending one — the split-phase BFS
// schedule (push posted behind the previous refresh) needs two — so
// shallower knob values are rejected at SetPipeDepth.
const MinPipeDepth = 2

// DeltaExchanger runs rounds of delta-only boundary exchange over
// nonblocking point-to-point messages. Usage per update round,
// collectively on every rank of the graph's communicator:
//
//	ex.Begin()                  // post receives, then compute locally
//	in := ex.Flush(updates)     // ship deltas, collect incoming
//
// Begin tells the exchanger's background drainer to receive and decode
// each neighbor's message while the caller is still computing; Flush
// sends this rank's queued updates (one message per boundary neighbor,
// empty when nothing changed) and then joins the drainer. The
// BeginTally/FlushTally variants additionally piggyback a small
// reduction vector on the same messages, which is how the partitioner
// settles part sizes without an Allreduce.
//
// The value flows are split-phase too: BeginValues/FlushValues ship
// full 64-bit payloads owner → ghost, BeginPush/FlushPush ghost →
// owner, both with optional per-source tally frames (TallyRound).
// Begin posts the sends and the drainer, so the caller can compute
// interior work while the messages are in flight; Flush joins and
// returns the incoming pairs.
//
// Rounds pipeline to the graph's configured depth (SetPipeDepth,
// default DefaultPipeDepth): after BeginValues (or BeginPush), further
// Begin* calls of any kind may be posted before the first round's
// Flush, keeping up to depth rounds of messages in flight; each Flush
// settles the oldest pending round, in FIFO order. The overlapped BFS
// engine uses this to keep each wave's depth-d ghost-refresh round and
// depth-d+1 discovery push in flight simultaneously, and for HC it
// interleaves depth/2 independent BFS waves' rounds — stamped with
// per-wave round tags via SetRoundWave — on the same pipeline.
//
// Every rank must call the same sequence of rounds or peers deadlock,
// exactly as they would skipping a collective. Calling Flush without
// Begin is allowed (the receive side is posted on entry, losing only
// overlap). Slices returned by a round alias per-exchanger arenas,
// cycled modulo the depth: they stay valid for depth-1 subsequent
// rounds (depth-1 Begin* calls after the Flush that returned them).
//
// Construction (NewDeltaExchanger, Graph.AsyncExchanger) is collective:
// it performs the one-time rank-neighborhood completeness Allreduce so
// NeighborhoodComplete is a pure cached read afterwards. An exchanger
// owns one background goroutine; Close releases it (graph teardown
// calls it via Graph.Close, and a finalizer backstops leaks).
type DeltaExchanger struct {
	g    *Graph
	plan *boundaryPlan

	// The persistent background drainer: one goroutine per exchanger,
	// started on first use and shut down by Close (with a finalizer as
	// backstop for exchangers that are collected without one). Posting
	// a round costs a channel send instead of a goroutine spawn, and
	// the drainer's decode arenas persist across rounds — both
	// load-bearing for the zero-allocation steady state.
	reqCh  chan drainReq
	resCh  chan drainResult
	doneCh chan struct{}

	// depth is the construction-time pipeline depth (Graph.PipeDepth):
	// how many rounds may be in flight at once.
	depth int
	// pend is the FIFO of posted-but-unflushed rounds (at most depth);
	// seq numbers rounds monotonically and — composed with the current
	// wave id — stamps their messages as mpi round tags.
	pend  []pendingRound
	npend int
	seq   uint32
	// wave is the 8-bit wave id stamped into subsequently posted
	// rounds' tags (SetRoundWave); 0 for single-stream callers.
	wave int

	// sendBufs are reusable per-neighbor encode buffers (update flow).
	sendBufs [][]int64
	// fwdIdx/fwdVal/fwdEnc are the owner→ghost value-flow arenas, one
	// per send neighbor; revIdx/revVal/revEnc the ghost→owner
	// counterparts, one per receive neighbor. They are consumed by the
	// time Begin* returns (mpi sends copy eagerly), so pipelined rounds
	// share them.
	fwdIdx [][]int32
	fwdVal [][]int64
	fwdEnc [][]int64
	revIdx [][]int32
	revVal [][]int64
	revEnc [][]int64

	// complete caches the construction-time completeness detection:
	// 1 yes, 2 no (0 only during construction itself).
	complete int8

	// Rounds counts completed rounds; MaxDepth is the high-water mark
	// of simultaneously pending rounds (2 once a caller pipelines).
	// Both are diagnostics for tests.
	Rounds   int64
	MaxDepth int
}

// pendingRound is one posted-but-unflushed round: its kind, declared
// tally frame length, the caller's own tally contribution (value
// rounds), its sequence number (which selects the drainer arena), and
// the composed (wave, seq) tag its messages carry.
type pendingRound struct {
	kind     roundKind
	tallyLen int
	ownTally []int64
	seq      uint32
	tag      uint32
}

// drainReq tells the drainer what the next round receives: which
// direction's messages, how long their tally frames are, the sequence
// number selecting the decode arena, and the round tag to assert on
// every frame.
type drainReq struct {
	kind     roundKind
	tallyLen int
	seq      uint32
	tag      uint32
}

// drainResult is what the background drainer hands back at Flush: the
// decoded updates and summed tallies (update rounds) or decoded pairs
// and per-source tally frames (value rounds), or the panic it
// recovered. Panics must travel back to the rank's main goroutine —
// re-raised from Flush — so mpi.Run's per-rank recovery sees them; a
// panic escaping on the drainer goroutine itself would kill the whole
// process. All slices alias the arena of the round's parity.
type drainResult struct {
	updates  []Update
	tally    []int64
	outL     []int32
	outP     []int64
	tallies  []int64
	panicked any
}

// drainArena is one round slot's set of decode buffers. The drainer
// owns depth of them and serves round seq from arena seq%depth, so a
// pipelined caller can still read round r's result while the drainer
// decodes rounds r+1 … r+depth-1 into the other arenas.
type drainArena struct {
	updates []Update
	tally   []int64
	outL    []int32
	outP    []int64
	tallies []int64
}

// drainer is the background half of one exchanger. It deliberately
// holds no reference back to the DeltaExchanger, so the exchanger can
// be collected (its finalizer closes req, ending the goroutine).
type drainer struct {
	comm   *mpi.Comm
	plan   *boundaryPlan
	req    chan drainReq
	res    chan drainResult
	done   chan struct{}
	arenas []drainArena
}

// NewDeltaExchanger builds the boundary plan for g and performs the
// one-time rank-neighborhood completeness detection. The plan build is
// local, but the detection is an Allreduce, so construction is
// COLLECTIVE: every rank of the graph's communicator must construct
// together (Graph.AsyncExchanger call sites do — the partitioner, the
// analytics engines, and SetAsyncExchange all construct on every rank
// at the same point). Moving the Allreduce here is what makes
// NeighborhoodComplete safe to call from conditional code: it is a
// cached read, never a hidden collective that could deadlock ranks
// disagreeing about whether to ask.
func (g *Graph) NewDeltaExchanger() *DeltaExchanger {
	plan := newBoundaryPlan(g)
	ex := &DeltaExchanger{
		g:        g,
		plan:     plan,
		depth:    g.PipeDepth(),
		sendBufs: make([][]int64, len(plan.sendRanks)),
		fwdIdx:   make([][]int32, len(plan.sendRanks)),
		fwdVal:   make([][]int64, len(plan.sendRanks)),
		fwdEnc:   make([][]int64, len(plan.sendRanks)),
		revIdx:   make([][]int32, len(plan.recvRanks)),
		revVal:   make([][]int64, len(plan.recvRanks)),
		revEnc:   make([][]int64, len(plan.recvRanks)),
	}
	ex.pend = make([]pendingRound, ex.depth)
	if mpi.NeighborhoodComplete(g.Comm, len(plan.sendRanks)) {
		ex.complete = 1
	} else {
		ex.complete = 2
	}
	return ex
}

// ensureDrainer lazily starts the exchanger's persistent drainer
// (again, if the exchanger was Closed and then reused).
func (ex *DeltaExchanger) ensureDrainer() {
	if ex.reqCh != nil {
		return
	}
	d := &drainer{
		comm:   ex.g.Comm,
		plan:   ex.plan,
		req:    make(chan drainReq, ex.depth),
		res:    make(chan drainResult, ex.depth),
		done:   make(chan struct{}),
		arenas: make([]drainArena, ex.depth),
	}
	ex.reqCh, ex.resCh, ex.doneCh = d.req, d.res, d.done
	go d.loop()
	runtime.SetFinalizer(ex, finalizeExchanger)
}

// Close settles any rounds still in flight (re-raising a drainer panic
// like the Flush that was never called would have) and stops the
// exchanger's background drainer goroutine, waiting until it has
// exited. Close is idempotent, and a closed exchanger may be reused —
// the next Begin* starts a fresh drainer. Graph.Close calls it during
// teardown; the finalizer remains only as a backstop for exchangers
// dropped without Close (finalizers are not guaranteed to run, so
// long-lived processes must not rely on it).
//
// Close belongs on the NORMAL teardown path, not in a defer that can
// run while a panic unwinds: settling a pending round blocks until the
// peers' messages arrive, and a rank that panicked out of the
// collective schedule would wait for sends that never come — before
// mpi.Run's recovery gets the chance to poison the world. After a
// panic, skip Close; poison unblocks the drainer and the finalizer
// reclaims it. Close must also not race a concurrent Begin*/Flush,
// and — like Flush — it must not be called with a pending update
// round whose FlushTally never ran, since peers are still waiting for
// that round's messages.
func (ex *DeltaExchanger) Close() {
	if ex.reqCh == nil {
		return
	}
	for ex.npend > 0 {
		ex.join()
	}
	runtime.SetFinalizer(ex, nil)
	close(ex.reqCh)
	<-ex.doneCh
	ex.reqCh, ex.resCh, ex.doneCh = nil, nil, nil
}

// InFlight reports the number of posted-but-unflushed rounds.
func (ex *DeltaExchanger) InFlight() int { return ex.npend }

// finalizeExchanger releases the drainer goroutine of a collected
// exchanger that was never Closed (best effort: a finalizer may never
// run — explicit Close is the supported path).
func finalizeExchanger(ex *DeltaExchanger) {
	if ex.reqCh != nil {
		close(ex.reqCh)
	}
}

// loop serves drain requests until the request channel closes. Each
// iteration recovers panics (mailbox poison after a sibling rank's
// crash, malformed frames) into the result so the main goroutine
// re-raises them.
func (d *drainer) loop() {
	defer close(d.done)
	for req := range d.req {
		a := &d.arenas[int(req.seq)%len(d.arenas)]
		var res drainResult
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.panicked = p
				}
			}()
			if req.kind == roundUpdates {
				res = d.drainUpdates(a, req)
			} else {
				res = d.drainValues(a, req)
			}
		}()
		d.res <- res
	}
}

// resizeZero returns buf with length n and all elements zero, reusing
// its capacity when possible.
func resizeZero(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// drainUpdates receives one update-flow message from every boundary
// neighbor, decoding packed updates into arena a and summing tally
// frames.
func (d *drainer) drainUpdates(a *drainArena, req drainReq) drainResult {
	a.updates = a.updates[:0]
	a.tally = resizeZero(a.tally, req.tallyLen)
	for i, src := range d.plan.recvRanks {
		lids := d.plan.recvLists[i]
		msg := mpi.Recv64Tag(d.comm, int(src), req.tag)
		for _, w := range mpi.SplitTally(msg, a.tally) {
			idx, value := unpackUpdate(w)
			if int(idx) >= len(lids) {
				panic(fmt.Sprintf("dgraph: rank %d: delta index %d outside shared list of %d with rank %d",
					d.comm.Rank(), idx, len(lids), src))
			}
			a.updates = append(a.updates, Update{LID: lids[idx], Value: value})
		}
		d.comm.Recycle64(msg)
	}
	return drainResult{updates: a.updates, tally: a.tally}
}

// drainValues receives one value-flow message from every neighbor of
// the round's direction, decoding (lid, payload) pairs into arena a
// and capturing each source's tally frame separately (value tallies
// are folded caller-side so float partial sums can keep global rank
// order).
func (d *drainer) drainValues(a *drainArena, req drainReq) drainResult {
	srcs, lists := d.plan.recvRanks, d.plan.recvLists
	if req.kind == roundValuesRev {
		srcs, lists = d.plan.sendRanks, d.plan.sendLists
	}
	a.outL = a.outL[:0]
	a.outP = a.outP[:0]
	a.tallies = resizeZero(a.tallies, len(srcs)*req.tallyLen)
	for i, src := range srcs {
		msg := mpi.Recv64Tag(d.comm, int(src), req.tag)
		body := msg
		if req.tallyLen > 0 {
			body = mpi.SplitTally(msg, a.tallies[i*req.tallyLen:(i+1)*req.tallyLen])
		}
		a.outL, a.outP = decodeValues(int(src), body, lists[i], a.outL, a.outP)
		d.comm.Recycle64(msg)
	}
	return drainResult{outL: a.outL, outP: a.outP, tallies: a.tallies}
}

// NeighborRanks returns the ranks this exchanger sends to (the ranks
// ghosting at least one owned vertex), ascending.
func (ex *DeltaExchanger) NeighborRanks() []int32 {
	out := make([]int32, len(ex.plan.sendRanks))
	copy(out, ex.plan.sendRanks)
	return out
}

// SharedSendGIDs returns the gid-sorted list of owned vertices the
// given neighbor rank ghosts — this rank's view of the directed pair
// (this → rank). It must equal the neighbor's SharedRecvGIDs for this
// rank element-for-element; tests assert that symmetry.
func (ex *DeltaExchanger) SharedSendGIDs(rank int) []int64 {
	for i, r := range ex.plan.sendRanks {
		if int(r) == rank {
			return ex.gidsOf(ex.plan.sendLists[i])
		}
	}
	return nil
}

// SharedRecvGIDs returns the gid-sorted list of ghosts the given
// neighbor rank owns — this rank's view of the directed pair
// (rank → this).
func (ex *DeltaExchanger) SharedRecvGIDs(rank int) []int64 {
	for i, r := range ex.plan.recvRanks {
		if int(r) == rank {
			return ex.gidsOf(ex.plan.recvLists[i])
		}
	}
	return nil
}

func (ex *DeltaExchanger) gidsOf(lids []int32) []int64 {
	out := make([]int64, len(lids))
	for j, lid := range lids {
		out[j] = ex.g.L2G[lid]
	}
	return out
}

// Begin posts the receive side of the next tally-free round; it is
// BeginTally(0). Begin must be followed by exactly one Flush.
func (ex *DeltaExchanger) Begin() { ex.BeginTally(0) }

// post appends a round to the pending FIFO and hands its receive side
// to the drainer, returning the round's message tag (the current wave
// id composed with the round's sequence number). It panics when depth
// rounds are already in flight, and when a value/push round would be
// posted behind a pending update round: value-flow sends are eager
// (Begin) while update-flow sends are deferred (Flush), so that
// combination would put the value frames ahead of the update frames in
// the pair FIFOs and skew every receiver. The converse — an update
// round posted behind a value round — is fine, because flushes run
// oldest-first and the update's deferred sends happen after the value
// round has fully settled.
//
//repro:hotpath
func (ex *DeltaExchanger) post(kind roundKind, tallyLen int, ownTally []int64) uint32 {
	if ex.npend == ex.depth {
		panic(fmt.Sprintf("dgraph: DeltaExchanger round posted with %d rounds already in flight (pipe depth %d)", ex.npend, ex.depth))
	}
	if kind != roundUpdates {
		for i := 0; i < ex.npend; i++ {
			if ex.pend[i].kind == roundUpdates {
				panic("dgraph: value round posted behind a pending update round (update sends are deferred to Flush; flush it first)")
			}
		}
	}
	//lint:ignore hotpathalloc ensureDrainer allocates only on its first call after construction or Close; steady-state rounds return at its nil check
	ex.ensureDrainer()
	s := ex.seq
	ex.seq++
	tag := mpi.RoundTag(ex.wave, s)
	ex.pend[ex.npend] = pendingRound{kind: kind, tallyLen: tallyLen, ownTally: ownTally, seq: s, tag: tag}
	ex.npend++
	if ex.npend > ex.MaxDepth {
		ex.MaxDepth = ex.npend
	}
	ex.reqCh <- drainReq{kind: kind, tallyLen: tallyLen, seq: s, tag: tag}
	return tag
}

// Depth returns the exchanger's construction-time pipeline depth.
func (ex *DeltaExchanger) Depth() int { return ex.depth }

// SetRoundWave selects the wave id stamped into the round tags of
// subsequently posted rounds (0, the initial value, for single-stream
// callers). Multi-wave schedules — the HC engine runs one BFS per wave
// slot over the shared pipeline — set it before each wave's Begin*
// calls, so a skewed schedule panics naming the wave AND the round.
// Like the round sequence itself it must be set identically on every
// rank; it never affects message matching.
func (ex *DeltaExchanger) SetRoundWave(w int) {
	if w < 0 || w > mpi.MaxTagWave {
		panic(fmt.Sprintf("dgraph: SetRoundWave(%d) outside [0,%d]", w, mpi.MaxTagWave))
	}
	ex.wave = w
}

// BeginTally posts the receive side of the next update round: the
// exchanger's background drainer takes one message from each boundary
// neighbor as it arrives, decoding into ghost-lid updates while the
// caller's compute is still in flight. tallyLen declares the length of
// the piggybacked tally frame every neighbor's message will carry this
// round (0 for none); the matching FlushTally must pass a tally of
// exactly that length. Every BeginTally must eventually be matched by
// exactly one Flush/FlushTally; flushes settle rounds oldest-first.
func (ex *DeltaExchanger) BeginTally(tallyLen int) {
	ex.post(roundUpdates, tallyLen, nil)
}

// join collects the oldest pending round's result from the drainer
// (results arrive in round order), pops it from the FIFO, and
// re-raises any panic the drainer recovered.
//
//repro:hotpath
func (ex *DeltaExchanger) join() drainResult {
	res := <-ex.resCh
	copy(ex.pend[:], ex.pend[1:ex.npend])
	ex.pend[ex.npend-1] = pendingRound{}
	ex.npend--
	if res.panicked != nil {
		panic(res.panicked)
	}
	ex.Rounds++
	return res
}

// Flush is FlushTally without a tally frame.
func (ex *DeltaExchanger) Flush(q []Update) []Update {
	out, _ := ex.FlushTally(q, nil)
	return out
}

// FlushTally encodes the round's owned-vertex updates, appends the
// rank's tally frame, sends one message to every boundary neighbor —
// tagged with the oldest pending update round's sequence number —
// joins that round's drain (posting the round now if the caller
// skipped Begin), and returns the updates received for this rank's
// ghosts together with the element-wise sum of the neighbors' tallies
// (nil when the round carries none). len(tally) must equal the round's
// declared tallyLen on every rank — the tally is part of the message
// framing, so a mismatch corrupts decoding on the peer. The returned
// slices alias exchanger arenas and are valid until the round after
// next is posted.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushTally(q []Update, tally []int64) ([]Update, []int64) {
	if ex.npend == 0 {
		ex.BeginTally(len(tally))
	}
	oldest := ex.pend[0]
	if oldest.kind != roundUpdates {
		panic("dgraph: FlushTally while the oldest pending round is a value round")
	}
	if len(tally) != oldest.tallyLen {
		panic(fmt.Sprintf("dgraph: FlushTally with tally length %d, Begin posted %d", len(tally), oldest.tallyLen))
	}
	plan := ex.plan
	for i := range ex.sendBufs {
		ex.sendBufs[i] = ex.sendBufs[i][:0]
	}
	for _, upd := range q {
		if upd.LID < 0 || int(upd.LID) >= ex.g.NLocal {
			panic(fmt.Sprintf("dgraph: DeltaExchanger.Flush with non-owned lid %d", upd.LID))
		}
		for _, t := range plan.targets[plan.targetOff[upd.LID]:plan.targetOff[upd.LID+1]] {
			ex.sendBufs[t.rankPos] = append(ex.sendBufs[t.rankPos], packUpdate(t.idx, upd.Value))
		}
	}
	for i, dst := range plan.sendRanks {
		ex.sendBufs[i] = mpi.AppendTally(ex.g.Comm, ex.sendBufs[i], tally)
		mpi.Isend64Tag(ex.g.Comm, int(dst), oldest.tag, ex.sendBufs[i])
	}
	res := ex.join()
	return res.updates, res.tally
}

// Ships reports whether an update for owned vertex v goes to any peer:
// some neighbor rank ghosts it. An interior vertex ships nothing, so
// a caller may leave its update out of a Flush queue and every peer
// still receives the same message. It is a plan read, with no lazy
// classification behind it.
//
//repro:hotpath
func (ex *DeltaExchanger) Ships(v int32) bool {
	return ex.plan.targetOff[v+1] > ex.plan.targetOff[v]
}

// NeighborhoodComplete reports whether every rank of the communicator
// neighbors every other rank — the condition under which tallies
// piggybacked on boundary messages already sum over all ranks, making
// piggybacked reductions (part sizes, convergence counters, PageRank's
// dangling mass) exact without any Allreduce. The detection runs once,
// collectively, during construction (NewDeltaExchanger), so this is a
// pure cached read — safe to call from conditional, per-rank code
// without any collective-mismatch deadlock risk.
func (ex *DeltaExchanger) NeighborhoodComplete() bool {
	return ex.complete == 1
}

// Value-flow wire format (BeginValues and BeginPush). One message
// per neighbor pair per round, all-int64:
//
//	[]                          no pairs this round
//	[-1, v0, v1, ...]           dense: one payload per shared-list
//	                            entry, in list order
//	[k, i01, i23, ..., v0..vk)  sparse: k pairs; indices packed two
//	                            int32s per element, then k payloads
//
// Dense costs 1+n elements and sparse 1+⌈k/2⌉+k, against 2k for
// (gid, payload) pairs. The dense form triggers exactly when a caller
// ships its full boundary in lid order, PageRank-style.
const denseHeader = -1

// encodeValues appends one value-flow message for a neighbor whose
// shared list has listLen entries onto dst (a reusable per-neighbor
// arena); idxs/vals hold this round's pairs in queue order.
func encodeValues(dst []int64, listLen int, idxs []int32, vals []int64) []int64 {
	k := len(idxs)
	if k == 0 {
		return dst
	}
	dense := k == listLen
	if dense {
		for j, idx := range idxs {
			if idx != int32(j) {
				dense = false
				break
			}
		}
	}
	if dense {
		dst = append(dst, denseHeader)
		return append(dst, vals...)
	}
	dst = append(dst, int64(k))
	for j := 0; j < k; j += 2 {
		hi, lo := idxs[j], int32(0)
		if j+1 < k {
			lo = idxs[j+1]
		}
		dst = append(dst, packUpdate(hi, lo))
	}
	return append(dst, vals...)
}

// decodeValues appends one value-flow message's (lid, payload) pairs —
// decoded against the pair's shared list — onto outL/outP.
func decodeValues(rank int, msg []int64, list []int32, outL []int32, outP []int64) ([]int32, []int64) {
	if len(msg) == 0 {
		return outL, outP
	}
	if msg[0] == denseHeader {
		vals := msg[1:]
		if len(vals) != len(list) {
			panic(fmt.Sprintf("dgraph: dense value message of %d payloads for shared list of %d", len(vals), len(list)))
		}
		return append(outL, list...), append(outP, vals...)
	}
	k := int(msg[0])
	np := (k + 1) / 2
	if k < 0 || 1+np+k != len(msg) {
		panic(fmt.Sprintf("dgraph: sparse value message header %d inconsistent with length %d", k, len(msg)))
	}
	vals := msg[1+np:]
	for j := 0; j < k; j++ {
		hi, lo := unpackUpdate(msg[1+j/2])
		idx := hi
		if j%2 == 1 {
			idx = lo
		}
		if int(idx) >= len(list) {
			panic(fmt.Sprintf("dgraph: value index %d outside shared list of %d with rank %d", idx, len(list), rank))
		}
		outL = append(outL, list[idx])
		outP = append(outP, vals[j])
	}
	return outL, outP
}

// TallyRound is the piggybacked reduction one split-phase value round
// collected: this rank's own contribution plus one frame per source
// neighbor, kept separate so the caller controls fold order. On a
// complete rank neighborhood the fold covers every rank, so it
// replaces the round's Allreduce exactly.
type TallyRound struct {
	own  []int64
	srcs []int32
	flat []int64
	n    int
	rank int32
}

// Len returns the round's tally frame length.
func (t TallyRound) Len() int { return t.n }

// Sum returns own[i] plus entry i of every received frame — the global
// sum for order-insensitive integer counters (convergence counts).
func (t TallyRound) Sum(i int) int64 {
	s := t.own[i]
	for f := 0; f < len(t.srcs); f++ {
		s += t.flat[f*t.n+i]
	}
	return s
}

// Max returns the maximum of own[i] and entry i of every received
// frame — the global max for order-insensitive integer extrema (the
// overlapped K-Core's coreness maximum). Entries absent from a frame
// fold as that source's contribution of 0, so Max is meaningful only
// for non-negative counters (like Sum, whose absent entries fold as 0).
func (t TallyRound) Max(i int) int64 {
	m := t.own[i]
	for f := 0; f < len(t.srcs); f++ {
		if v := t.flat[f*t.n+i]; v > m {
			m = v
		}
	}
	return m
}

// FoldFloatMax folds entry i as float64 bit patterns under max — the
// max-combining counterpart of FoldFloat. Max over floats is exact in
// any order (no rounding, unlike sums), so on complete neighborhoods
// the result is bit-identical to the Allreduce(Max) it replaces
// regardless of fold order. (SpMV's ∞-norm piggyback rests on the same
// argument but inlines its fold — its expand messages are float64, not
// tally frames.)
func (t TallyRound) FoldFloatMax(i int) float64 {
	m := math.Float64frombits(uint64(t.own[i]))
	for f := 0; f < len(t.srcs); f++ {
		if v := math.Float64frombits(uint64(t.flat[f*t.n+i])); v > m {
			m = v
		}
	}
	return m
}

// FoldFloat folds entry i as float64 bit patterns in ascending global
// rank order, with this rank's own contribution at its rank position —
// the exact accumulation order of mpi.Allreduce(Sum), so on complete
// neighborhoods the result is bit-identical to the Allreduce it
// replaces.
func (t TallyRound) FoldFloat(i int) float64 {
	var sum float64
	first := true
	add := func(bits int64) {
		v := math.Float64frombits(uint64(bits))
		if first {
			sum, first = v, false
			return
		}
		sum += v
	}
	ownDone := false
	for f, src := range t.srcs {
		if !ownDone && t.rank < src {
			add(t.own[i])
			ownDone = true
		}
		add(t.flat[f*t.n+i])
	}
	if !ownDone {
		add(t.own[i])
	}
	return sum
}

// BeginValues posts a split-phase owner → ghost value round: it encodes
// and sends full 64-bit payloads for the given owned vertices to every
// neighbor ghosting them — with the rank's tally frame appended to each
// message (tally may be nil) — and tells the background drainer to
// start collecting the symmetric incoming messages. The caller then
// computes work that does not read ghost values (interior vertices)
// while the messages are in flight, and settles with FlushValues. Up
// to the exchanger's pipeline depth rounds may be posted before
// flushing; lids and payloads are consumed before BeginValues returns,
// but tally must stay untouched until the round's FlushValues returns.
//
//repro:hotpath
func (ex *DeltaExchanger) BeginValues(lids []int32, payloads []int64, tally []int64) {
	plan := ex.plan
	for i := range ex.fwdIdx {
		ex.fwdIdx[i] = ex.fwdIdx[i][:0]
		ex.fwdVal[i] = ex.fwdVal[i][:0]
	}
	for qi, lid := range lids {
		if lid < 0 || int(lid) >= ex.g.NLocal {
			panic(fmt.Sprintf("dgraph: BeginValues with non-owned lid %d", lid))
		}
		for _, t := range plan.targets[plan.targetOff[lid]:plan.targetOff[lid+1]] {
			ex.fwdIdx[t.rankPos] = append(ex.fwdIdx[t.rankPos], t.idx)
			ex.fwdVal[t.rankPos] = append(ex.fwdVal[t.rankPos], payloads[qi])
		}
	}
	tag := ex.post(roundValuesFwd, len(tally), tally)
	for i, dst := range plan.sendRanks {
		buf := encodeValues(ex.fwdEnc[i][:0], len(plan.sendLists[i]), ex.fwdIdx[i], ex.fwdVal[i])
		buf = mpi.AppendTally(ex.g.Comm, buf, tally)
		ex.fwdEnc[i] = buf
		mpi.Isend64Tag(ex.g.Comm, int(dst), tag, buf)
	}
}

// FlushValues joins the oldest pending round — which must be a
// BeginValues round — and returns the (ghost lid, payload) pairs
// received plus the round's tally frames. The returned slices alias
// exchanger arenas and stay valid for depth-1 subsequent rounds.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushValues() ([]int32, []int64, TallyRound) {
	if ex.npend == 0 || ex.pend[0].kind != roundValuesFwd {
		panic("dgraph: FlushValues without a pending BeginValues round oldest in the pipeline")
	}
	own, n := ex.pend[0].ownTally, ex.pend[0].tallyLen
	res := ex.join()
	tr := TallyRound{own: own, srcs: ex.plan.recvRanks, flat: res.tallies, n: n, rank: int32(ex.g.Comm.Rank())}
	return res.outL, res.outP, tr
}

// BeginPush posts a split-phase ghost → owner value round: payloads for
// the given ghost vertices travel to their owning ranks, with the
// rank's tally frame appended to each message. Settle with FlushPush.
// Like BeginValues it may be posted while one earlier round is still
// in flight — the overlapped BFS posts the next depth's discovery push
// while the previous depth's ghost refresh is still pending.
//
//repro:hotpath
func (ex *DeltaExchanger) BeginPush(lids []int32, payloads []int64, tally []int64) {
	plan := ex.plan
	for i := range ex.revIdx {
		ex.revIdx[i] = ex.revIdx[i][:0]
		ex.revVal[i] = ex.revVal[i][:0]
	}
	for qi, lid := range lids {
		gi := int(lid) - ex.g.NLocal
		if gi < 0 || gi >= ex.g.NGhost {
			panic(fmt.Sprintf("dgraph: BeginPush with owned lid %d", lid))
		}
		pos := plan.ghostRankPos[gi]
		ex.revIdx[pos] = append(ex.revIdx[pos], plan.ghostIdx[gi])
		ex.revVal[pos] = append(ex.revVal[pos], payloads[qi])
	}
	tag := ex.post(roundValuesRev, len(tally), tally)
	for i, dst := range plan.recvRanks {
		buf := encodeValues(ex.revEnc[i][:0], len(plan.recvLists[i]), ex.revIdx[i], ex.revVal[i])
		buf = mpi.AppendTally(ex.g.Comm, buf, tally)
		ex.revEnc[i] = buf
		mpi.Isend64Tag(ex.g.Comm, int(dst), tag, buf)
	}
}

// FlushPush joins the oldest pending round — which must be a BeginPush
// round — and returns the (owned lid, payload) pairs received plus the
// round's tally frames. The returned slices alias exchanger arenas and
// stay valid for depth-1 subsequent rounds.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushPush() ([]int32, []int64, TallyRound) {
	if ex.npend == 0 || ex.pend[0].kind != roundValuesRev {
		panic("dgraph: FlushPush without a pending BeginPush round oldest in the pipeline")
	}
	own, n := ex.pend[0].ownTally, ex.pend[0].tallyLen
	res := ex.join()
	tr := TallyRound{own: own, srcs: ex.plan.sendRanks, flat: res.tallies, n: n, rank: int32(ex.g.Comm.Rank())}
	return res.outL, res.outP, tr
}
