// Package dgraph implements the 1D distributed CSR the XtraPuLP
// reproduction computes on: each rank owns a contiguous-by-distribution
// slice of the vertex set, stores its owned vertices' adjacency with
// task-local ids, and mirrors one-hop remote neighbors as ghosts whose
// values (part labels, analytic scores) are refreshed by boundary
// exchanges.
//
// # Construction
//
// FromEdgeChunks builds the shard collectively from arbitrary edge-list
// chunks: arcs are shuffled to their head's owner, each rank assembles
// a local CSR, discovers ghosts, and fetches ghost degrees. The
// Distribution implementations (BlockDist, HashDist, PartsDist) map
// global vertex ids to owning ranks.
//
// # Boundary exchange: two transports
//
// Every iterative algorithm on the shard pushes changed owned-vertex
// values to the ranks ghosting them (and, for frontier algorithms, the
// reverse). Two interchangeable transports implement this:
//
//   - Synchronous (exchangeRaw, ExchangeUpdates): destinations are
//     re-derived from the adjacency every call and (gid, value) pairs
//     ship through a world-wide mpi.Alltoallv.
//   - Asynchronous delta (DeltaExchanger, delta.go): the boundary
//     structure is precomputed once — for every neighbor rank, the
//     gid-sorted list of shared vertices, derived independently and
//     identically on both sides of each pair — so updates name
//     vertices by shared-list index, travel as packed elements over
//     nonblocking point-to-point messages, and the receive side drains
//     on a persistent background goroutine concurrently with local
//     compute. Every flow is split-phase (Begin/Flush,
//     BeginValues/FlushValues, BeginPush/FlushPush) and rounds
//     pipeline to a construction-time depth knob (SetPipeDepth,
//     default DefaultPipeDepth) — further Begin* calls may be posted
//     while earlier rounds' Flushes are still outstanding, with each
//     round's messages stamped with its sequence number (composed
//     with an optional wave id, SetRoundWave) as an mpi round tag and
//     flushes settling rounds oldest-first. Messages may
//     additionally piggyback tally frames (mpi.AppendTally) so an
//     exchange round doubles as a reduction, with value rounds keeping
//     the frames per source (TallyRound) so float partial sums fold in
//     global rank order (and extrema max-combine exactly: Max,
//     FoldFloatMax). Steady-state rounds allocate nothing: encode
//     buffers are per-exchanger arenas, decode buffers are drainer
//     arenas double-buffered by round parity, and transfer copies come
//     from the mpi buffer pool.
//
// Exchanger construction is collective (it runs the one-time
// rank-neighborhood completeness Allreduce so NeighborhoodComplete is
// a pure cached read), and every exchanger owns one drainer goroutine
// released by DeltaExchanger.Close — Graph.Close calls it at teardown;
// a finalizer exists only as a backstop for dropped exchangers.
//
// The generic helpers (ExchangeInt64, ExchangeFloat64, PushToOwners)
// always run on the bulk-synchronous Alltoallv engine. The delta
// engine has no blocking wrappers: the partitioner drives the update
// flow (Begin/Flush) directly, and with SetAsyncExchange(true) the
// overlapped analytics engines drive the split-phase value flows
// directly (every BFS wave keeping a push and a refresh in flight —
// one wave for BFS, depth/2 for HC). On complete rank neighborhoods
// their termination tests read piggybacked counters; elsewhere every
// round pays the exact termination Allreduce the synchronous engine
// pays. Both engines deliver identical results — the choice is
// observable only in mpi.Stats traffic counters and wall time.
//
// # Hot-path annotation
//
// The steady-state delta-engine functions (round post/join, the
// Flush/Begin value flows) carry a //repro:hotpath directive as the
// last line of their doc comment: cmd/reprolint's hotpathalloc
// analyzer enforces that they perform no heap allocation beyond the
// sanctioned arena-growth idioms, turning the AllocsPerRun == 0
// regression tests into a compile-time guarantee. See
// docs/INVARIANTS.md for the rule and the full invariant catalogue.
package dgraph
