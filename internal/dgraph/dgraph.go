package dgraph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/mpi"
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
	// async selects piggybacked convergence counters for the
	// analytics (SetAsyncExchange).
	async bool
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

// AsyncExchanger returns the graph's delta exchanger, building the
// shared boundary plan — and running the one-time collective
// rank-neighborhood completeness detection — on first use, so the
// first call per graph must happen at the same point on every rank
// (see NewDeltaExchanger). It is the graph's one boundary-exchange
// transport: the partitioner's update rounds, the analytics' value
// rounds and ExchangeInt64 all run on it, in both exchange modes, so
// the boundary plan is derived once.
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

// SetPipeDepth selects the delta exchanger's pipeline depth: how many
// exchange rounds may be in flight at once (DeltaExchanger.Depth). The
// depth is a CONSTRUCTION-time parameter — the pending-round FIFO and
// the drainer's decode arenas are sized to it — so it must be set
// before the graph's exchanger is first built (AsyncExchanger,
// SetAsyncExchange, ExchangeInt64, or any partitioning or analytics
// run); setting it
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
		panic("dgraph: SetPipeDepth after the exchanger was built (depth is a construction-time parameter; set it before the graph's first exchange)")
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

// SetAsyncExchange selects the analytics engine's mode. Both modes run
// every boundary exchange on the graph's delta exchanger
// (AsyncExchanger) with the same round schedule; the mode decides only
// how the per-round convergence counters and reductions settle. With
// false (the default) every round ends in an exact Allreduce, the
// paper's bulk-synchronous schedule. With true the counters ride the
// value messages as piggybacked tally frames whenever the rank
// neighborhood is complete (DeltaExchanger.NeighborhoodComplete), and
// fall back to the same per-round Allreduce elsewhere. Turning it on
// builds the exchanger eagerly (a collective, see NewDeltaExchanger).
// Every rank of the communicator must select the same mode — the two
// have different collective footprints and mixing them deadlocks,
// exactly like mismatched collectives under MPI.
func (g *Graph) SetAsyncExchange(on bool) {
	g.async = on
	if on {
		g.AsyncExchanger()
	}
}

// AsyncExchange reports whether the analytics piggyback their
// convergence counters on complete rank neighborhoods
// (SetAsyncExchange).
func (g *Graph) AsyncExchange() bool { return g.async }

// ExchangeInt64 pushes 64-bit values (labels, core numbers, levels) for
// the given owned vertices to the ranks ghosting them and applies the
// symmetric incoming updates into vals (indexed by local id). It is one
// blocking round of the delta exchanger's value flow
// (DeltaExchanger.BeginValues then FlushValues) with no tally frame, so
// it is collective like any round, and must not be called while an
// update round is pending. The analytics drive the split-phase value
// flow directly, overlapping interior work with the messages.
func (g *Graph) ExchangeInt64(lids []int32, vals []int64) {
	payloads := make([]int64, len(lids))
	for i, lid := range lids {
		payloads[i] = vals[lid]
	}
	ex := g.AsyncExchanger()
	ex.BeginValues(lids, payloads, nil)
	outL, outP, _ := ex.FlushValues()
	for i, lid := range outL {
		vals[lid] = outP[i]
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
