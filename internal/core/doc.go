// Package core implements XTRAPULP, the paper's distributed-memory
// label-propagation partitioner (Algorithms 1–5): BFS-style random-root
// initialization, vertex balancing with degree-weighted label
// propagation, constrained refinement, and the edge-balancing stage for
// the multi-constraint multi-objective problem. Part-assignment updates
// are damped by the dynamic multiplier
//
//	mult = nprocs × ((X−Y)·iter_tot/I_tot + Y)
//
// which linearly tightens each rank's per-iteration quota of moves into
// any part, preventing the oscillation that occurs when thousands of
// ranks concurrently discover the same underweight part (§III.C).
//
// # Iteration structure and exchange modes
//
// Each inner iteration runs rank-local label propagation across worker
// threads, ships the changed boundary labels to the ranks ghosting
// them, and settles the global per-part size estimates the weighting
// functions read. The labels always travel as packed per-neighbor
// point-to-point messages (dgraph.DeltaExchanger) posted before the
// propagation loop and drained concurrently with it. Options.Exchange
// selects only how the size deltas settle:
//
//   - ExchangeSync: a world-wide Allreduce settles the per-iteration
//     size deltas — one global barrier per iteration.
//   - ExchangeAsyncDelta: the size-delta tallies piggyback on the
//     update messages, so an iteration ends with no global barrier at
//     all. Every rank folds its own deltas plus its neighbors'
//     piggybacked tallies into its estimates. Those sums are exact
//     only when every rank neighbors every other, which the
//     partitioner detects collectively at startup; on any other
//     topology the settle falls back to the synchronous mode's exact
//     Allreduce. Either way the async partition matches the
//     synchronous one bit-for-bit at equal seeds.
//
// Partition reports the exchanged-element volume and Allreduce count
// of a run (Report.ExchangeVolume, Report.ReductionOps) so the two
// modes can be compared.
package core
