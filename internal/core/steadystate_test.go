package core

import (
	"runtime"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// partitionBytes builds g over nranks with a block distribution,
// partitions once with opts[0] to warm the graph's exchanger and the
// world's pools, and then returns, per option set, the bytes every rank
// together allocated during one Partition call.
func partitionBytes(t *testing.T, g *gen.Generator, nranks int, opts []Options) []uint64 {
	t.Helper()
	out := make([]uint64, len(opts))
	mpi.Run(nranks, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: build: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		if _, _, err := Partition(dg, opts[0]); err != nil {
			t.Errorf("rank %d: partition: %v", c.Rank(), err)
			return
		}
		for i, opt := range opts {
			var before, after runtime.MemStats
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			if _, _, err := Partition(dg, opt); err != nil {
				t.Errorf("rank %d: partition: %v", c.Rank(), err)
				return
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				out[i] = after.TotalAlloc - before.TotalAlloc
			}
			c.Barrier()
		}
	})
	return out
}

// TestPartitionRoundsSteadyState: the balance and refine rounds reuse
// one update queue and merge buffer per Partition call, so what an
// extra round allocates is a few small per-round vectors, flat in the
// graph size. Doubling Ibal and Iref adds Iouter*(Ibal+Iref) rounds to
// each of the vertex and edge stages; the bytes per added round must
// not grow from mesh 16^3 to 32^3 at the same rank count. A queue or
// merge slice allocated per round grows with the boundary and fails.
func TestPartitionRoundsSteadyState(t *testing.T) {
	short, long := DefaultOptions(8), DefaultOptions(8)
	long.Ibal, long.Iref = 2*short.Ibal, 2*short.Iref
	extra := uint64(2 * short.Iouter * (short.Ibal + short.Iref))
	const perRoundCap, growthCap = 2048, 256
	for _, ranks := range []int{1, 2} {
		var perRound []uint64
		for _, side := range []int64{16, 32} {
			b := partitionBytes(t, gen.Grid3D(side, side, side), ranks, []Options{short, long})
			if b[1] < b[0] {
				b[1] = b[0]
			}
			r := (b[1] - b[0]) / extra
			t.Logf("mesh %d^3, %d ranks: %d bytes per extra round (%d -> %d bytes per call)", side, ranks, r, b[0], b[1])
			if r > perRoundCap {
				t.Errorf("mesh %d^3, %d ranks: %d bytes per extra round, cap %d", side, ranks, r, perRoundCap)
			}
			perRound = append(perRound, r)
		}
		if perRound[1] > perRound[0]+growthCap {
			t.Errorf("%d ranks: bytes per extra round grow with the mesh: %d at 16^3, %d at 32^3 (allowed +%d)",
				ranks, perRound[0], perRound[1], growthCap)
		}
	}
}
