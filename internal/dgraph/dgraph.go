package dgraph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Graph is one rank's share of a distributed undirected graph: a CSR
// over owned vertices whose adjacency refers to task-local ids. Local
// ids [0, NLocal) are owned vertices in increasing gid order; ids
// [NLocal, NLocal+NGhost) are ghosts (one-hop neighbors owned by other
// ranks).
type Graph struct {
	// Comm is the communicator this shard was built on.
	Comm *mpi.Comm
	// Dist is the vertex-to-rank ownership function.
	Dist Distribution
	// NGlobal and MGlobal are the global vertex and undirected edge
	// counts.
	NGlobal int64
	MGlobal int64
	// NLocal is the number of owned vertices; NGhost the ghost count.
	NLocal int
	NGhost int
	// Offsets is the CSR index for owned vertices (len NLocal+1).
	Offsets []int64
	// Adj holds task-local neighbor ids for owned vertices.
	Adj []int32
	// L2G maps local id -> global id (len NLocal+NGhost).
	L2G []int64
	// G2L maps global id -> local id for owned and ghost vertices.
	G2L map[int64]int32
	// Degrees holds the global degree of every local and ghost vertex;
	// ghost degrees are fetched from their owners at build time (the
	// edge-weighted label propagation needs them).
	Degrees []int64
	// GhostOwner[i] is the owning rank of ghost NLocal+i.
	GhostOwner []int32

	// boundary caches BoundaryVertices; interior its complement;
	// boundaryMark the membership bitmap behind IsBoundaryVertex. The
	// Once guards the lazy classification: sweep workers may ask
	// IsBoundaryVertex concurrently before anything on the main
	// goroutine has forced the split.
	boundaryOnce sync.Once
	boundary     []int32
	interior     []int32
	boundaryMark []bool
	// deltaEx caches the graph's delta exchanger (AsyncExchanger).
	deltaEx *DeltaExchanger
	// async selects the analytics engine's async mode
	// (SetAsyncExchange).
	async bool
	// termEpoch is the analytics termination-epoch knob (SetTermEpoch).
	termEpoch int
	// pipeDepth is the exchange-pipeline depth knob (SetPipeDepth).
	pipeDepth int
}

// NTotal returns the local array extent NLocal+NGhost.
func (g *Graph) NTotal() int { return g.NLocal + g.NGhost }

// Degree returns the degree of the owned vertex with local id v.
func (g *Graph) Degree(v int32) int64 {
	return g.Offsets[v+1] - g.Offsets[v]
}

// Neighbors returns the local-id adjacency of owned vertex v; the slice
// aliases graph storage.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// IsGhost reports whether local id v refers to a ghost vertex.
func (g *Graph) IsGhost(v int32) bool { return int(v) >= g.NLocal }

// OwnerOfLocal returns the rank owning local id v.
func (g *Graph) OwnerOfLocal(v int32) int {
	if g.IsGhost(v) {
		return int(g.GhostOwner[int(v)-g.NLocal])
	}
	return g.Comm.Rank()
}

// FromEdgeChunks builds the distributed graph collectively. Each rank
// passes its (arbitrary, possibly overlapping-none) chunk of the global
// undirected edge list; edges are shuffled so that every arc lands on
// its head's owner, then each rank assembles its local CSR, discovers
// ghosts, and fetches ghost degrees.
func FromEdgeChunks(c *mpi.Comm, nGlobal int64, chunk []graph.Edge, dist Distribution) (*Graph, error) {
	if err := validateDistribution(dist, c.Size(), nGlobal); err != nil {
		return nil, err
	}
	nprocs := c.Size()

	// Shuffle arcs to owners: edge {u, v} becomes arc u->v sent to
	// owner(u) and arc v->u sent to owner(v). Self loops produce a
	// single arc.
	counts := make([]int, nprocs)
	for _, e := range chunk {
		if e.U < 0 || e.U >= nGlobal || e.V < 0 || e.V >= nGlobal {
			return nil, fmt.Errorf("dgraph: edge (%d,%d) out of range [0,%d)", e.U, e.V, nGlobal)
		}
		counts[dist.Owner(e.U)] += 2
		if e.U != e.V {
			counts[dist.Owner(e.V)] += 2
		}
	}
	offsets := make([]int, nprocs+1)
	for r := 0; r < nprocs; r++ {
		offsets[r+1] = offsets[r] + counts[r]
	}
	sendBuf := make([]int64, offsets[nprocs])
	cursor := make([]int, nprocs)
	copy(cursor, offsets[:nprocs])
	put := func(dst int, head, tail int64) {
		sendBuf[cursor[dst]] = head
		sendBuf[cursor[dst]+1] = tail
		cursor[dst] += 2
	}
	for _, e := range chunk {
		put(dist.Owner(e.U), e.U, e.V)
		if e.U != e.V {
			put(dist.Owner(e.V), e.V, e.U)
		}
	}
	recv, _ := mpi.Alltoallv(c, sendBuf, counts)

	// Owned vertex universe (including isolated vertices).
	owned := ownedList(dist, nGlobal, c.Rank())
	nLocal := len(owned)
	g2l := make(map[int64]int32, nLocal*2)
	for i, gid := range owned {
		g2l[gid] = int32(i)
	}

	// Local CSR over owned vertices with global neighbor ids first.
	deg := make([]int64, nLocal)
	for i := 0; i < len(recv); i += 2 {
		head := recv[i]
		lid, ok := g2l[head]
		if !ok {
			return nil, fmt.Errorf("dgraph: rank %d received arc head %d it does not own", c.Rank(), head)
		}
		deg[lid]++
	}
	csrOff := make([]int64, nLocal+1)
	for i := 0; i < nLocal; i++ {
		csrOff[i+1] = csrOff[i] + deg[i]
	}
	adjGlobal := make([]int64, csrOff[nLocal])
	fill := make([]int64, nLocal)
	copy(fill, csrOff[:nLocal])
	for i := 0; i < len(recv); i += 2 {
		lid := g2l[recv[i]]
		adjGlobal[fill[lid]] = recv[i+1]
		fill[lid]++
	}

	// Ghost discovery: every adjacency gid not owned becomes a ghost.
	l2g := make([]int64, nLocal, nLocal+64)
	copy(l2g, owned)
	var ghostOwner []int32
	for _, gid := range adjGlobal {
		if _, ok := g2l[gid]; !ok {
			g2l[gid] = int32(len(l2g))
			l2g = append(l2g, gid)
			ghostOwner = append(ghostOwner, int32(dist.Owner(gid)))
		}
	}
	nGhost := len(l2g) - nLocal

	// Localize adjacency.
	adj := make([]int32, len(adjGlobal))
	for i, gid := range adjGlobal {
		adj[i] = g2l[gid]
	}

	g := &Graph{
		Comm:       c,
		Dist:       dist,
		NGlobal:    nGlobal,
		NLocal:     nLocal,
		NGhost:     nGhost,
		Offsets:    csrOff,
		Adj:        adj,
		L2G:        l2g,
		G2L:        g2l,
		GhostOwner: ghostOwner,
	}

	// Global degree array: owned degrees are local CSR degrees (each
	// undirected edge contributes an arc at both endpoints); ghost
	// degrees are fetched from their owners.
	g.Degrees = make([]int64, g.NTotal())
	for v := 0; v < nLocal; v++ {
		g.Degrees[v] = deg[v]
	}
	if err := g.fetchGhostDegrees(); err != nil {
		return nil, err
	}

	arcsLocal := int64(len(adj))
	g.MGlobal = mpi.AllreduceScalar(c, arcsLocal, mpi.Sum) / 2
	return g, nil
}

// fetchGhostDegrees asks each ghost's owner for its degree via two
// Alltoallv exchanges (queries out, answers back).
func (g *Graph) fetchGhostDegrees() error {
	nprocs := g.Comm.Size()
	// Group ghost gids by owner.
	counts := make([]int, nprocs)
	for i := 0; i < g.NGhost; i++ {
		counts[g.GhostOwner[i]]++
	}
	offsets := make([]int, nprocs+1)
	for r := 0; r < nprocs; r++ {
		offsets[r+1] = offsets[r] + counts[r]
	}
	queries := make([]int64, g.NGhost)
	order := make([]int32, g.NGhost) // ghost index in query order
	cursor := make([]int, nprocs)
	copy(cursor, offsets[:nprocs])
	for i := 0; i < g.NGhost; i++ {
		o := g.GhostOwner[i]
		queries[cursor[o]] = g.L2G[g.NLocal+i]
		order[cursor[o]] = int32(i)
		cursor[o]++
	}
	recvQ, recvCounts := mpi.Alltoallv(g.Comm, queries, counts)
	// Answer with degrees in the same order.
	answers := make([]int64, len(recvQ))
	for i, gid := range recvQ {
		lid, ok := g.G2L[gid]
		if !ok || g.IsGhost(lid) {
			return fmt.Errorf("dgraph: rank %d asked for degree of %d it does not own", g.Comm.Rank(), gid)
		}
		answers[i] = g.Degree(lid)
	}
	back, _ := mpi.Alltoallv(g.Comm, answers, recvCounts)
	for qi, d := range back {
		g.Degrees[g.NLocal+int(order[qi])] = d
	}
	return nil
}

// Update is one boundary part-assignment record exchanged between ranks
// (the ⟨v, w⟩ pairs of Algorithms 2–5).
type Update struct {
	// LID is a task-local vertex id: on the sender an owned vertex, on
	// the receiver the corresponding ghost.
	LID int32
	// Value is the new part assignment.
	Value int32
}

// exchangeRaw is the bulk-synchronous boundary-exchange engine
// (Algorithm 3): for each queued owned-vertex update, send
// (gid, payload) to every neighboring rank that holds the vertex as a
// ghost through a world-wide Alltoallv, and return the updates
// received for this rank's ghosts (translated back to local ghost
// ids). The asynchronous counterpart — packed per-neighbor
// point-to-point messages over a precomputed boundary plan — lives in
// delta.go; SetAsyncExchange selects between them for the generic
// helpers below. Both passes over the queue — counting and buffer
// filling — run across the rank's worker threads with thread-local
// count arrays merged at the end, exactly the scheme the paper reports
// as faster than atomics.
func (g *Graph) exchangeRaw(lids []int32, payloads []int64) (outLIDs []int32, outPayloads []int64) {
	nprocs := g.Comm.Size()
	me := g.Comm.Rank()
	threads := g.Comm.Threads()
	if threads > len(lids) {
		threads = len(lids)
	}
	if threads < 1 {
		threads = 1
	}

	// Pass 1: count items per destination, one count array per thread.
	threadCounts := make([][]int, threads)
	par.ForChunk(0, len(lids), threads, func(lo, hi, tid int) {
		counts := make([]int, nprocs)
		toSend := make([]bool, nprocs)
		for qi := lo; qi < hi; qi++ {
			for r := range toSend {
				toSend[r] = false
			}
			for _, u := range g.Neighbors(lids[qi]) {
				if !g.IsGhost(u) {
					continue
				}
				task := int(g.GhostOwner[int(u)-g.NLocal])
				if task != me && !toSend[task] {
					toSend[task] = true
					counts[task] += 2
				}
			}
		}
		threadCounts[tid] = counts
	})
	// Merge: each thread's writes go to a distinct region per
	// destination, laid out [dst][tid] so the wire format stays
	// destination-major.
	sendCounts := make([]int, nprocs)
	for _, tc := range threadCounts {
		if tc == nil {
			continue
		}
		for r, c := range tc {
			sendCounts[r] += c
		}
	}
	sendOffsets := make([]int, nprocs+1)
	for r := 0; r < nprocs; r++ {
		sendOffsets[r+1] = sendOffsets[r] + sendCounts[r]
	}
	// threadOffsets[tid][dst]: where thread tid writes for destination
	// dst (exclusive prefix over threads within each destination).
	threadOffsets := make([][]int, threads)
	for tid := range threadOffsets {
		threadOffsets[tid] = make([]int, nprocs)
	}
	for r := 0; r < nprocs; r++ {
		pos := sendOffsets[r]
		for tid := 0; tid < threads; tid++ {
			threadOffsets[tid][r] = pos
			if threadCounts[tid] != nil {
				pos += threadCounts[tid][r]
			}
		}
	}

	// Pass 2: fill the send buffer, each thread into its own regions.
	sendBuf := make([]int64, sendOffsets[nprocs])
	par.ForChunk(0, len(lids), threads, func(lo, hi, tid int) {
		cursor := threadOffsets[tid]
		toSend := make([]bool, nprocs)
		for qi := lo; qi < hi; qi++ {
			lid := lids[qi]
			for r := range toSend {
				toSend[r] = false
			}
			for _, u := range g.Neighbors(lid) {
				if !g.IsGhost(u) {
					continue
				}
				task := int(g.GhostOwner[int(u)-g.NLocal])
				if task != me && !toSend[task] {
					toSend[task] = true
					sendBuf[cursor[task]] = g.L2G[lid]
					sendBuf[cursor[task]+1] = payloads[qi]
					cursor[task] += 2
				}
			}
		}
	})

	recv, _ := mpi.Alltoallv(g.Comm, sendBuf, sendCounts)
	outLIDs = make([]int32, 0, len(recv)/2)
	outPayloads = make([]int64, 0, len(recv)/2)
	for i := 0; i < len(recv); i += 2 {
		lid, ok := g.G2L[recv[i]]
		if !ok {
			// The sender believed we ghost this vertex but we do not;
			// with a correct boundary map this cannot happen.
			panic(fmt.Sprintf("dgraph: rank %d received update for unknown gid %d", me, recv[i]))
		}
		outLIDs = append(outLIDs, lid)
		outPayloads = append(outPayloads, recv[i+1])
	}
	return outLIDs, outPayloads
}

// ExchangeUpdates exchanges int32-valued boundary updates (part
// labels) over the bulk-synchronous engine; the partitioner's async
// mode uses DeltaExchanger.Flush instead.
func (g *Graph) ExchangeUpdates(q []Update) []Update {
	lids := make([]int32, len(q))
	payloads := make([]int64, len(q))
	for i, upd := range q {
		lids[i] = upd.LID
		payloads[i] = int64(upd.Value)
	}
	outL, outP := g.exchangeRaw(lids, payloads)
	out := make([]Update, len(outL))
	for i := range outL {
		out[i] = Update{LID: outL[i], Value: int32(outP[i])}
	}
	return out
}

// AsyncExchanger returns the graph's delta exchanger, building the
// shared boundary plan — and running the one-time collective
// rank-neighborhood completeness detection — on first use, so the
// first call per graph must happen at the same point on every rank
// (see NewDeltaExchanger). The instance is shared by every consumer of
// the graph (the partitioner's update rounds and the async analytics'
// value rounds), so the boundary plan is derived once.
func (g *Graph) AsyncExchanger() *DeltaExchanger {
	if g.deltaEx == nil {
		g.deltaEx = g.NewDeltaExchanger()
	}
	return g.deltaEx
}

// Close releases the graph's cached delta exchanger, stopping its
// background drainer goroutine. Long-lived processes that build many
// graphs must call it (or DeltaExchanger.Close directly) — the
// exchanger's finalizer is only a backstop, and finalizers are not
// guaranteed to run. Close is idempotent and cheap on graphs that
// never built an exchanger; the facade's distributed runs call it on
// every rank before the rank function returns.
func (g *Graph) Close() {
	if g.deltaEx != nil {
		g.deltaEx.Close()
		g.deltaEx = nil
	}
}

// SetTermEpoch bounds termination-test staleness for the overlapped
// analytics on incomplete rank neighborhoods: every k-th round performs
// the exact termination Allreduce, with the rounds in between running
// unchecked — at most k-1 extra no-op rounds past the fixed point, which
// by definition cannot change any value. 0 or 1 (the default) keeps the
// exact per-round fallback. On complete neighborhoods the knob is
// irrelevant: piggybacked counters already terminate without any
// Allreduce. The analytics counterpart of core.Options.SizeEpoch; every
// rank must set the same value.
func (g *Graph) SetTermEpoch(k int) { g.termEpoch = k }

// TermEpoch returns the termination-epoch knob (see SetTermEpoch),
// normalized to at least 1.
func (g *Graph) TermEpoch() int {
	if g.termEpoch < 1 {
		return 1
	}
	return g.termEpoch
}

// SetPipeDepth selects the delta exchanger's pipeline depth: how many
// exchange rounds may be in flight at once (DeltaExchanger.Depth). The
// depth is a CONSTRUCTION-time parameter — the pending-round FIFO and
// the drainer's decode arenas are sized to it — so it must be set
// before the graph's exchanger is first built (AsyncExchanger,
// SetAsyncExchange, or any analytics run in async mode); setting it
// afterwards panics rather than silently not applying. 0 keeps the
// default (DefaultPipeDepth); values below MinPipeDepth are rejected,
// because every BFS wave keeps a push and a refresh in flight. Among
// the analytics only HC uses more: it runs depth/2 concurrent BFS
// waves, while a lone BFS (as in SCC and ApproxDiameter) keeps two
// rounds in flight at any depth. Every rank must set the same value.
func (g *Graph) SetPipeDepth(d int) {
	if d != 0 && d < MinPipeDepth {
		panic(fmt.Sprintf("dgraph: SetPipeDepth(%d): depth below %d rejected (the split-phase schedules keep a push and a refresh in flight)", d, MinPipeDepth))
	}
	if g.deltaEx != nil && g.deltaEx.Depth() != g.normalizePipeDepth(d) {
		panic("dgraph: SetPipeDepth after the exchanger was built (depth is a construction-time parameter; set it before the first async exchange)")
	}
	g.pipeDepth = d
}

// PipeDepth returns the pipeline-depth knob (see SetPipeDepth),
// normalized to the default when unset.
func (g *Graph) PipeDepth() int { return g.normalizePipeDepth(g.pipeDepth) }

func (g *Graph) normalizePipeDepth(d int) int {
	if d == 0 {
		return DefaultPipeDepth
	}
	return d
}

// SetAsyncExchange selects the analytics engine's mode: false (the
// default) runs the analytics bulk-synchronously over ExchangeInt64,
// ExchangeFloat64, PushToOwners and per-round Allreduces; true makes
// them drive the delta exchanger's split-phase rounds directly, with
// piggybacked convergence counters. Turning it on builds the exchanger
// eagerly (a collective, see NewDeltaExchanger). Every rank of the
// communicator must select the same mode — the two engines have
// different collective footprints and mixing them deadlocks, exactly
// like mismatched collectives under MPI.
func (g *Graph) SetAsyncExchange(on bool) {
	g.async = on
	if on {
		g.AsyncExchanger()
	}
}

// AsyncExchange reports whether the analytics run on the async delta
// engine (SetAsyncExchange).
func (g *Graph) AsyncExchange() bool { return g.async }

// ExchangeInt64 pushes 64-bit values (labels, core numbers, levels) for
// the given owned vertices to the ranks ghosting them and applies the
// symmetric incoming updates into vals (indexed by local id), over the
// bulk-synchronous Alltoallv engine whatever SetAsyncExchange selects.
// The async analytics ship the same values with
// DeltaExchanger.BeginValues/FlushValues instead.
func (g *Graph) ExchangeInt64(lids []int32, vals []int64) {
	payloads := make([]int64, len(lids))
	for i, lid := range lids {
		payloads[i] = vals[lid]
	}
	outL, outP := g.exchangeRaw(lids, payloads)
	for i, lid := range outL {
		vals[lid] = outP[i]
	}
}

// ExchangeFloat64 is ExchangeInt64 for float64 values (ranks, scores),
// shipped bit-exactly over the same Alltoallv engine.
func (g *Graph) ExchangeFloat64(lids []int32, vals []float64) {
	payloads := make([]int64, len(lids))
	for i, lid := range lids {
		payloads[i] = int64(math.Float64bits(vals[lid]))
	}
	outL, outP := g.exchangeRaw(lids, payloads)
	for i, lid := range outL {
		vals[lid] = math.Float64frombits(uint64(outP[i]))
	}
}

// BoundaryVertices returns the owned local ids that have at least one
// ghost neighbor — the vertices whose values other ranks ghost. The
// result is cached after the first call.
func (g *Graph) BoundaryVertices() []int32 {
	g.boundaryOnce.Do(g.classifyBoundary)
	return g.boundary
}

// InteriorVertices returns the owned local ids with no ghost neighbor,
// ascending — the complement of BoundaryVertices. Interior vertices
// read only rank-local values, which is what lets the overlapped
// analytics engines compute them while boundary messages are in
// flight. The result is cached after the first call.
func (g *Graph) InteriorVertices() []int32 {
	g.boundaryOnce.Do(g.classifyBoundary)
	return g.interior
}

// IsBoundaryVertex reports whether owned vertex v has a ghost neighbor.
func (g *Graph) IsBoundaryVertex(v int32) bool {
	g.boundaryOnce.Do(g.classifyBoundary)
	return g.boundaryMark[v]
}

// classifyBoundary derives the boundary/interior split once per graph.
func (g *Graph) classifyBoundary() {
	mark := make([]bool, g.NLocal)
	bnd := make([]int32, 0, g.NGhost)
	inr := make([]int32, 0, g.NLocal)
	for v := 0; v < g.NLocal; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if g.IsGhost(u) {
				mark[v] = true
				break
			}
		}
		if mark[v] {
			bnd = append(bnd, int32(v))
		} else {
			inr = append(inr, int32(v))
		}
	}
	g.boundary, g.interior, g.boundaryMark = bnd, inr, mark
}

// GatherGlobal reconstructs a global int32 array (for example part
// assignments) from each rank's owned slice vals[0:NLocal]. Every rank
// receives the full array indexed by gid. Intended for tests, examples,
// and quality evaluation at modest scales.
func (g *Graph) GatherGlobal(vals []int32) []int32 {
	// (gid, val) pairs packed as int64 words rather than a struct
	// payload, so the gather works on wire transports too.
	mine := make([]int64, 0, 2*g.NLocal)
	for v := 0; v < g.NLocal; v++ {
		mine = append(mine, g.L2G[v], int64(vals[v]))
	}
	all := mpi.Allgatherv(g.Comm, mine)
	out := make([]int32, g.NGlobal)
	for _, pairs := range all {
		for i := 0; i+1 < len(pairs); i += 2 {
			out[pairs[i]] = int32(pairs[i+1])
		}
	}
	return out
}

// SortedGhostGIDs returns the ghost global ids in increasing order
// (diagnostics and tests).
func (g *Graph) SortedGhostGIDs() []int64 {
	out := make([]int64, g.NGhost)
	copy(out, g.L2G[g.NLocal:])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks the shard's structural invariants.
func (g *Graph) Validate() error {
	if int64(len(g.Offsets)) != int64(g.NLocal)+1 {
		return fmt.Errorf("dgraph: offsets length %d != NLocal+1 = %d", len(g.Offsets), g.NLocal+1)
	}
	if len(g.L2G) != g.NTotal() {
		return fmt.Errorf("dgraph: L2G length %d != NTotal %d", len(g.L2G), g.NTotal())
	}
	if len(g.Degrees) != g.NTotal() {
		return fmt.Errorf("dgraph: degrees length %d != NTotal %d", len(g.Degrees), g.NTotal())
	}
	if len(g.GhostOwner) != g.NGhost {
		return fmt.Errorf("dgraph: ghost owner length %d != NGhost %d", len(g.GhostOwner), g.NGhost)
	}
	for v := 0; v < g.NLocal; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("dgraph: offsets not monotone at %d", v)
		}
	}
	if int64(len(g.Adj)) != g.Offsets[g.NLocal] {
		return fmt.Errorf("dgraph: adj length %d != offsets end %d", len(g.Adj), g.Offsets[g.NLocal])
	}
	for i, u := range g.Adj {
		if u < 0 || int(u) >= g.NTotal() {
			return fmt.Errorf("dgraph: adj[%d] = %d outside [0,%d)", i, u, g.NTotal())
		}
	}
	for lid, gid := range g.L2G {
		if got, ok := g.G2L[gid]; !ok || got != int32(lid) {
			return fmt.Errorf("dgraph: G2L/L2G mismatch at lid %d gid %d", lid, gid)
		}
		want := g.Comm.Rank()
		if lid >= g.NLocal {
			want = int(g.GhostOwner[lid-g.NLocal])
		}
		if g.Dist.Owner(gid) != want {
			return fmt.Errorf("dgraph: ownership mismatch for gid %d", gid)
		}
	}
	return nil
}

// PushToOwners sends payloads for the given ghost local ids to the
// ranks that own them — the reverse direction of the owner → ghost
// exchanges, needed by frontier algorithms (BFS) where a rank
// discovers vertices it does not own. It returns the received pairs
// translated to owned local ids. Like the forward helpers it ships
// (gid, payload) pairs over Alltoallv; the async BFS pushes with
// DeltaExchanger.BeginPush/FlushPush instead.
func (g *Graph) PushToOwners(lids []int32, payloads []int64) ([]int32, []int64) {
	nprocs := g.Comm.Size()
	sendCounts := make([]int, nprocs)
	for _, lid := range lids {
		if !g.IsGhost(lid) {
			panic(fmt.Sprintf("dgraph: PushToOwners with owned lid %d", lid))
		}
		sendCounts[g.GhostOwner[int(lid)-g.NLocal]] += 2
	}
	sendOffsets := make([]int, nprocs+1)
	for r := 0; r < nprocs; r++ {
		sendOffsets[r+1] = sendOffsets[r] + sendCounts[r]
	}
	sendBuf := make([]int64, sendOffsets[nprocs])
	tmp := make([]int, nprocs)
	copy(tmp, sendOffsets[:nprocs])
	for i, lid := range lids {
		task := g.GhostOwner[int(lid)-g.NLocal]
		sendBuf[tmp[task]] = g.L2G[lid]
		sendBuf[tmp[task]+1] = payloads[i]
		tmp[task] += 2
	}
	recv, _ := mpi.Alltoallv(g.Comm, sendBuf, sendCounts)
	outL := make([]int32, 0, len(recv)/2)
	outP := make([]int64, 0, len(recv)/2)
	for i := 0; i < len(recv); i += 2 {
		lid, ok := g.G2L[recv[i]]
		if !ok || g.IsGhost(lid) {
			panic(fmt.Sprintf("dgraph: rank %d received push for gid %d it does not own", g.Comm.Rank(), recv[i]))
		}
		outL = append(outL, lid)
		outP = append(outP, recv[i+1])
	}
	return outL, outP
}
