package spmv

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// socketWorld builds an n-rank socket world over Unix sockets in a
// per-test directory, all ranks in this process. (internal/mpitest's
// factories cannot be imported here: mpitest imports the repro facade,
// which imports this package.)
func socketWorld(t *testing.T, n int) []mpi.Transport {
	dir := t.TempDir()
	addrs := make([]string, n)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
	}
	ts, err := mpi.NewSocketWorld("unix", addrs, 30*time.Second)
	if err != nil {
		t.Fatalf("socket world: %v", err)
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

// reading is what one measured call cost the whole world: heap
// allocations and bytes per call, and the words every rank together
// sent per call.
type reading struct {
	mallocs, bytes uint64
	words          int64
}

// perCall runs call warm times on every rank, then n measured times
// between barriers, and returns the process-wide cost per call as rank
// 0 reads it (all ranks allocate into the same counters). Integer
// division per call, as testing.AllocsPerRun does, absorbs the
// bracketing barriers. It is a collective: every rank must call it.
func perCall(c *mpi.Comm, call func(), warm, n int) reading {
	for i := 0; i < warm; i++ {
		call()
	}
	var before, after runtime.MemStats
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&before)
	}
	sent := c.Stats().ElemsSent
	c.Barrier()
	for i := 0; i < n; i++ {
		call()
	}
	sent = c.Stats().ElemsSent - sent
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&after)
	}
	words := mpi.AllreduceScalar(c, sent, mpi.Sum)
	return reading{
		mallocs: (after.Mallocs - before.Mallocs) / uint64(n),
		bytes:   (after.TotalAlloc - before.TotalAlloc) / uint64(n),
		words:   words / int64(n),
	}
}

// TestMultiplySteadyState: a steady-state multiply sends every value
// as float64 bits through the pooled Isend64/Recv64 path and recycles
// each received buffer at once. On the in-process transport a multiply
// whose norm rides the expand messages (1D async on a complete
// neighborhood) allocates nothing, and every other mode allocates no
// more than its one AllreduceScalar. On the socket transport what a
// multiply allocates is the frame encoding, about 8 bytes per remote
// word; a per-message copy or a float conversion array at either end
// breaks the 1.5x bound. Threads are pinned at 1: the bound is on
// multiply's own buffers, not on worker fan-out.
func TestMultiplySteadyState(t *testing.T) {
	const ranks, warm, n = 4, 10, 50
	g := gen.RMAT(12, 8, 11).MustBuild()
	parts := partition.Random(g, ranks, 3)
	factories := []struct {
		name  string
		world func(t *testing.T, n int) []mpi.Transport
	}{{"proc", func(_ *testing.T, n int) []mpi.Transport { return mpi.NewProcWorld(n) }}, {"socket", socketWorld}}
	for _, f := range factories {
		for _, layout := range []Layout{OneD, TwoD} {
			for _, async := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/async=%v", f.name, layout, async)
				var mul, bare reading
				var ride bool
				mpi.RunWorld(f.world(t, ranks), 1, func(c *mpi.Comm) {
					m, err := prepare(c, g, parts, Options{Layout: layout, Async: async})
					if err != nil {
						panic(err)
					}
					reduce := !m.normPiggyback
					mr := perCall(c, func() { m.multiply(reduce) }, warm, n)
					br := perCall(c, func() { mpi.AllreduceScalar(c, 1.0, mpi.Max) }, warm, n)
					if c.Rank() == 0 {
						mul, bare, ride = mr, br, m.normPiggyback
					}
				})
				t.Logf("%s: ride=%v, multiply %d allocs / %d B / %d words, bare AllreduceScalar %d allocs / %d B",
					name, ride, mul.mallocs, mul.bytes, mul.words, bare.mallocs, bare.bytes)
				if layout == OneD && async && !ride {
					// The zero-allocation claim needs the ride taken.
					t.Errorf("%s: a random %d-way partition did not take the norm ride", name, ranks)
				}
				switch {
				case f.name == "socket":
					ratio := float64(mul.bytes) / (8 * float64(mul.words))
					t.Logf("%s: %.2f x 8 B per remote word", name, ratio)
					if ratio > 1.5 {
						t.Errorf("%s: %d B per multiply for %d remote words (%.2f x 8 B), want <= 1.5 x", name, mul.bytes, mul.words, ratio)
					}
				case ride:
					if mul.mallocs != 0 {
						t.Errorf("%s: %d allocs per multiply under the norm ride, want 0", name, mul.mallocs)
					}
				case mul.mallocs > bare.mallocs:
					t.Errorf("%s: %d allocs per multiply, more than one bare AllreduceScalar (%d)", name, mul.mallocs, bare.mallocs)
				}
			}
		}
	}
}
