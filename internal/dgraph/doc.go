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
// chunks in linear passes, with no hash map and no copy of the rank's
// own arcs. The Distribution implementations (BlockDist, HashDist,
// PartsDist) map global vertex ids to owning ranks.
//
//   - A dense length-NGlobal index maps gid to lid+1 (0: not local).
//     Owned vertices are numbered first, in gid order; a block
//     distribution writes only its own range.
//   - Only arcs whose head another rank owns are packed and shipped in
//     one Alltoallv. The rank's own arcs stay in its chunk: the build
//     reads arcs in source-rank order, taking its own straight from the
//     chunk at its own position, which is the order a full shuffle
//     would deliver. A one-rank world packs and copies nothing.
//   - A count pass sizes the CSR and rejects received arcs whose head
//     this rank does not own; a fill pass writes task-local adjacency,
//     giving each new ghost the next index entry as it is met.
//   - Ghosts are then renumbered in first-seen CSR order, and one
//     gid-ordered scan of the index fills L2G, GhostOwner and the final
//     index. Ghost degrees come from their owners in two Alltoallvs.
//
// Every array is sized before it is filled. Graph.LID reads the index
// afterwards, and the boundary plan takes its per-owner receive lists
// from the same gid-ordered scan.
//
// # Boundary exchange: one transport
//
// Every iterative algorithm on the shard pushes changed owned-vertex
// values to the ranks ghosting them (and, for frontier algorithms, the
// reverse). The delta exchanger (DeltaExchanger, delta.go) carries all
// of it: the boundary structure is precomputed once — for every
// neighbor rank, the gid-sorted list of shared vertices, derived
// independently and identically on both sides of each pair — so
// updates name vertices by shared-list index, travel as packed
// elements over nonblocking point-to-point messages, and the receive
// side drains on a persistent background goroutine concurrently with
// local compute. Every flow is split-phase (Begin/Flush,
// BeginValues/FlushValues, BeginPush/FlushPush) and rounds pipeline to
// a construction-time depth knob (SetPipeDepth, default
// DefaultPipeDepth) — further Begin* calls may be posted while earlier
// rounds' Flushes are still outstanding, with each round's messages
// stamped with its sequence number (composed with an optional wave id,
// SetRoundWave) as an mpi round tag and flushes settling rounds
// oldest-first. Messages may additionally piggyback tally frames
// (mpi.AppendTally) so an exchange round doubles as a reduction, with
// value rounds keeping the frames per source (TallyRound) so float
// partial sums fold in global rank order (and extrema max-combine
// exactly: Max, FoldFloatMax). Steady-state rounds allocate nothing:
// encode buffers are per-exchanger arenas, decode buffers are drainer
// arenas cycled modulo the depth, and transfer copies come from the
// mpi buffer pool.
//
// Exchanger construction is collective (it runs the one-time
// rank-neighborhood completeness Allreduce so NeighborhoodComplete is
// a pure cached read), and every exchanger owns one drainer goroutine
// released by DeltaExchanger.Close — Graph.Close calls it at teardown,
// so every graph that exchanges must be closed; a finalizer exists
// only as a backstop for dropped exchangers.
//
// The partitioner drives the update flow (Begin/Flush) and the
// analytics engines drive the split-phase value flows (every BFS wave
// keeping a push and a refresh in flight — one wave for BFS, depth/2
// for HC); ExchangeInt64 is one blocking value round. The exchange
// mode (SetAsyncExchange) does not change the transport or the round
// schedule. It decides only whether convergence counters and size
// tallies ride the messages on a complete rank neighborhood (async) or
// are settled by an exact Allreduce every round (sync, and async on
// any other topology). Both modes deliver identical results — the
// choice is observable only in mpi.Stats traffic counters and wall
// time.
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
