package dgraph

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// Steady-state allocation discipline: after warmup, FlushTally and
// FlushValues rounds must not touch the heap — the encode arenas, the
// drainer's decode arenas, and the mpi transfer-buffer pool absorb
// every byte. These tests drive full rounds on every rank and assert
// testing.AllocsPerRun == 0 on rank 0 while the sibling ranks run the
// same rounds (their allocations would land in the same process-wide
// counter, so the assertion covers all ranks at once).

// allocHarness builds a distributed graph on nranks ranks and runs
// round exactly warmup+measured times on every rank; rank 0 measures
// the last `measured` rounds with testing.AllocsPerRun.
func allocHarness(t *testing.T, nranks int, mk func(dg *Graph) func(), what string) {
	t.Helper()
	g := gen.ER(400, 2400, 11)
	const warmup, measured = 12, 40
	mpi.Run(nranks, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		round := mk(dg)
		for i := 0; i < warmup; i++ {
			round()
		}
		c.Barrier()
		if c.Rank() == 0 {
			// AllocsPerRun calls round measured+1 times (one warmup
			// call of its own); the sibling ranks match it below.
			if avg := testing.AllocsPerRun(measured, round); avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state round, want 0", what, avg)
			}
		} else {
			for i := 0; i < measured+1; i++ {
				round()
			}
		}
	})
}

func TestFlushTallySteadyStateAllocFree(t *testing.T) {
	allocHarness(t, 4, func(dg *Graph) func() {
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		q := make([]Update, len(bv))
		for i, v := range bv {
			q[i] = Update{LID: v, Value: int32(i % 7)}
		}
		tally := []int64{3, 0, int64(dg.Comm.Rank())}
		return func() {
			ex.BeginTally(len(tally))
			ex.FlushTally(q, tally)
		}
	}, "FlushTally")
}

func TestFlushValuesSteadyStateAllocFree(t *testing.T) {
	allocHarness(t, 4, func(dg *Graph) func() {
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		for i, v := range bv {
			payload[i] = int64(v) * 3
		}
		tally := []int64{1}
		return func() {
			ex.BeginValues(bv, payload, tally)
			ex.FlushValues()
		}
	}, "FlushValues")
}

func TestFlushPushSteadyStateAllocFree(t *testing.T) {
	allocHarness(t, 4, func(dg *Graph) func() {
		ex := dg.AsyncExchanger()
		ghosts := make([]int32, dg.NGhost)
		payload := make([]int64, dg.NGhost)
		for i := range ghosts {
			ghosts[i] = int32(dg.NLocal + i)
			payload[i] = int64(i)
		}
		return func() {
			ex.BeginPush(ghosts, payload, nil)
			ex.FlushPush()
		}
	}, "FlushPush")
}

// benchValueRound reports ns and B per steady-state split-phase value
// round (full boundary, dense encoding, one-counter tally) — the
// -benchmem companion of the AllocsPerRun assertions.
func BenchmarkFlushValuesSteadyState(b *testing.B) {
	g := gen.RMAT(12, 16, 1)
	b.ReportAllocs()
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 1})
		if err != nil {
			b.Error(err)
			return
		}
		ex := dg.AsyncExchanger()
		defer dg.Close()
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		for i, v := range bv {
			payload[i] = int64(v)
		}
		tally := []int64{1}
		benchWarmupReset(b, c, func() {
			ex.BeginValues(bv, payload, tally)
			ex.FlushValues()
		})
		for i := 0; i < b.N; i++ {
			ex.BeginValues(bv, payload, tally)
			ex.FlushValues()
		}
	})
}

// benchWarmupReset runs a few warmup rounds on every rank, then resets
// the benchmark timer and allocation counters on rank 0 so the
// measured window covers only steady-state rounds (graph construction
// and arena/pool growth excluded).
func benchWarmupReset(b *testing.B, c *mpi.Comm, round func()) {
	b.Helper()
	for i := 0; i < 12; i++ {
		round()
	}
	c.Barrier()
	if c.Rank() == 0 {
		b.ResetTimer()
	}
	c.Barrier()
}

func BenchmarkFlushTallySteadyState(b *testing.B) {
	g := gen.RMAT(12, 16, 1)
	b.ReportAllocs()
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 1})
		if err != nil {
			b.Error(err)
			return
		}
		ex := dg.AsyncExchanger()
		defer dg.Close()
		bv := dg.BoundaryVertices()
		q := make([]Update, len(bv))
		for i, v := range bv {
			q[i] = Update{LID: v, Value: int32(i % 16)}
		}
		tally := []int64{0, 5}
		benchWarmupReset(b, c, func() {
			ex.BeginTally(len(tally))
			ex.FlushTally(q, tally)
		})
		for i := 0; i < b.N; i++ {
			ex.BeginTally(len(tally))
			ex.FlushTally(q, tally)
		}
	})
}
