package core

import (
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// stagedPartition partitions g over nranks at the given thread count by
// running Partition's stages one refine round at a time, and calls
// afterRefine on every rank after each refine round has settled, with
// the number of vertices the rank scored in that round. It returns the
// global assignment. block selects a block distribution, else the hash
// distribution runPartition uses.
func stagedPartition(t *testing.T, g *gen.Generator, nranks, threads int, block bool, opt Options, afterRefine func(s *state, scored int64)) []int32 {
	t.Helper()
	var global []int32
	mpi.RunThreads(nranks, threads, func(c *mpi.Comm) {
		var dist dgraph.Distribution = dgraph.HashDist{P: c.Size(), Seed: 42}
		if block {
			dist = dgraph.BlockDist{N: g.N, P: c.Size()}
		}
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), dist)
		if err != nil {
			t.Errorf("rank %d: build: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		s := newState(dg, opt)
		s.initialize()
		refine := func(withEdges bool) {
			s.beginRefine(withEdges)
			for iter := 0; iter < opt.Iref; iter++ {
				before := s.candidates()
				s.refineRound(withEdges)
				afterRefine(s, s.candidates()-before)
			}
		}
		s.iterTot = 0
		for outer := 0; outer < opt.Iouter; outer++ {
			s.vertBalance()
			refine(false)
		}
		s.iterTot = 0
		for outer := 0; outer < opt.Iouter; outer++ {
			s.edgeBalance()
			refine(true)
		}
		full := dg.GatherGlobal(s.parts[:dg.NLocal])
		if c.Rank() == 0 {
			global = full
		}
	})
	return global
}

// testThreads is the thread counts the clean-bit tests run at: 1 and
// REPRO_TEST_THREADS when set above 1, else 1 and 4.
func testThreads() []int {
	if n, err := strconv.Atoi(os.Getenv("REPRO_TEST_THREADS")); err == nil && n > 1 {
		return []int{1, n}
	}
	return []int{1, 4}
}

// checkSettledStable reports every owned vertex the next refine round
// would skip that is not locally stable under the current labels: some
// other part holds strictly more of its neighbors than its own.
func checkSettledStable(t *testing.T, s *state, counts []int64) {
	t.Helper()
	for v := int32(0); v < int32(s.g.NLocal); v++ {
		if !s.settled(v) {
			continue
		}
		x := s.parts[v]
		for _, u := range s.g.Neighbors(v) {
			counts[s.parts[u]]++
		}
		for i, c := range counts {
			if int32(i) != x && c > counts[x] {
				t.Errorf("rank %d, round %d: vertex %d is clean in part %d with %d neighbors there, but part %d holds %d",
					s.g.Comm.Rank(), s.iterTot, v, x, counts[x], i, c)
				return
			}
		}
		clear(counts)
	}
}

// TestCleanVerticesStable: after every refine round, every vertex the
// next round would skip re-scores as locally stable, on mesh and RMAT,
// at 1-3 ranks and at 1 and more threads. At one thread the staged run
// is Partition, label for label.
func TestCleanVerticesStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *gen.Generator
	}{
		{"mesh 12^3", gen.Grid3D(12, 12, 12)},
		{"RMAT 10", gen.RMAT(10, 8, 3)},
	} {
		for _, ranks := range []int{1, 2, 3} {
			for _, threads := range testThreads() {
				opt := DefaultOptions(8)
				var mu sync.Mutex
				got := stagedPartition(t, tc.g, ranks, threads, false, opt, func(s *state, _ int64) {
					counts := make([]int64, s.p)
					mu.Lock()
					defer mu.Unlock()
					checkSettledStable(t, s, counts)
				})
				if t.Failed() {
					t.Fatalf("%s, %d ranks, %d threads", tc.name, ranks, threads)
				}
				if threads == 1 {
					want, _ := runPartition(t, tc.g, ranks, opt)
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %d ranks: staged run differs from Partition", tc.name, ranks)
					}
				}
			}
		}
	}
}

// candidates sums the vertices every worker thread of s has scored.
func (s *state) candidates() int64 {
	var n int64
	for i := range s.scr {
		n += s.scr[i].candidates
	}
	return n
}

// TestRefineSkipsSettled: on mesh 32^3 under a block distribution, at 1
// and 2 ranks, the refine stages score at most a third of the vertices
// full sweeps would, which score every owned vertex in every round.
func TestRefineSkipsSettled(t *testing.T) {
	g := gen.Grid3D(32, 32, 32)
	opt := DefaultOptions(16)
	full := 2 * int64(opt.Iouter*opt.Iref) * g.N
	for _, ranks := range []int{1, 2} {
		var mu sync.Mutex
		var scored int64
		stagedPartition(t, g, ranks, 1, true, opt, func(_ *state, n int64) {
			mu.Lock()
			scored += n
			mu.Unlock()
		})
		t.Logf("%d ranks: refine scored %d of %d vertices (%.3f)", ranks, scored, full, float64(scored)/float64(full))
		if 3*scored > full {
			t.Errorf("%d ranks: refine scored %d vertices, more than a third of %d", ranks, scored, full)
		}
	}
}
