package dgraph

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// buildDistributed constructs the distributed graph for a generator on
// p ranks inside one mpi.Run, calling check on every rank's shard.
func buildDistributed(t *testing.T, g *gen.Generator, p int, dist func(nranks int) Distribution, check func(dg *Graph)) {
	t.Helper()
	mpi.Run(p, func(c *mpi.Comm) {
		chunk := g.EdgesChunk(c.Rank(), c.Size())
		dg, err := FromEdgeChunks(c, g.N, chunk, dist(c.Size()))
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		if err := dg.Validate(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		check(dg)
	})
}

func blockDist(n int64) func(int) Distribution {
	return func(p int) Distribution { return BlockDist{N: n, P: p} }
}

func hashDist() func(int) Distribution {
	return func(p int) Distribution { return HashDist{P: p, Seed: 99} }
}

func TestBlockDistRangesPartition(t *testing.T) {
	d := BlockDist{N: 103, P: 8}
	seen := int64(0)
	for r := 0; r < 8; r++ {
		lo, hi := d.Range(r)
		for gid := lo; gid < hi; gid++ {
			if d.Owner(gid) != r {
				t.Fatalf("gid %d in range of rank %d but owned by %d", gid, r, d.Owner(gid))
			}
			seen++
		}
	}
	if seen != 103 {
		t.Fatalf("ranges cover %d vertices, want 103", seen)
	}
}

func TestHashDistInRange(t *testing.T) {
	d := HashDist{P: 7, Seed: 1}
	counts := make([]int, 7)
	for gid := int64(0); gid < 7000; gid++ {
		o := d.Owner(gid)
		if o < 0 || o >= 7 {
			t.Fatalf("owner %d out of range", o)
		}
		counts[o]++
	}
	for r, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("rank %d owns %d of 7000 vertices; distribution too skewed", r, c)
		}
	}
}

func TestDistributedMatchesSharedArcCount(t *testing.T) {
	g := gen.RMAT(10, 8, 5)
	shared := g.MustBuild()
	for _, p := range []int{1, 2, 4} {
		for _, mk := range []func(int) Distribution{blockDist(g.N), hashDist()} {
			var arcsTotal int64
			var nLocalTotal int64
			mpi.Run(p, func(c *mpi.Comm) {
				dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), mk(c.Size()))
				if err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				defer dg.Close()
				arcs := mpi.AllreduceScalar(c, int64(len(dg.Adj)), mpi.Sum)
				nl := mpi.AllreduceScalar(c, int64(dg.NLocal), mpi.Sum)
				if c.Rank() == 0 {
					arcsTotal, nLocalTotal = arcs, nl
				}
				if dg.MGlobal != shared.NumArcs()/2 {
					t.Errorf("MGlobal = %d, want %d", dg.MGlobal, shared.NumArcs()/2)
				}
			})
			if arcsTotal != shared.NumArcs() {
				t.Fatalf("p=%d: distributed arcs %d != shared %d", p, arcsTotal, shared.NumArcs())
			}
			if nLocalTotal != g.N {
				t.Fatalf("p=%d: owned vertices %d != N %d", p, nLocalTotal, g.N)
			}
		}
	}
}

func TestDistributedAdjacencyMatchesShared(t *testing.T) {
	g := gen.ER(200, 800, 3)
	shared := g.MustBuild()
	buildDistributed(t, g, 3, blockDist(g.N), func(dg *Graph) {
		for v := 0; v < dg.NLocal; v++ {
			gid := dg.L2G[v]
			want := shared.Neighbors(gid)
			got := dg.Neighbors(int32(v))
			if len(got) != len(want) {
				t.Errorf("gid %d: degree %d != %d", gid, len(got), len(want))
				return
			}
			// Compare as multisets of global ids.
			wantCount := map[int64]int{}
			for _, u := range want {
				wantCount[u]++
			}
			for _, u := range got {
				wantCount[dg.L2G[u]]--
			}
			for u, cnt := range wantCount {
				if cnt != 0 {
					t.Errorf("gid %d: neighbor multiset mismatch at %d", gid, u)
					return
				}
			}
		}
	})
}

func TestGhostDegreesMatchShared(t *testing.T) {
	g := gen.RMAT(9, 8, 7)
	shared := g.MustBuild()
	buildDistributed(t, g, 4, hashDist(), func(dg *Graph) {
		for i := 0; i < dg.NGhost; i++ {
			lid := dg.NLocal + i
			gid := dg.L2G[lid]
			if dg.Degrees[lid] != shared.Degree(gid) {
				t.Errorf("ghost gid %d degree %d != shared %d", gid, dg.Degrees[lid], shared.Degree(gid))
				return
			}
		}
	})
}

func TestGhostsAreExactlyBoundary(t *testing.T) {
	g := gen.Grid3D(6, 6, 6)
	buildDistributed(t, g, 4, blockDist(g.N), func(dg *Graph) {
		// Every ghost must appear in some owned adjacency.
		referenced := make(map[int32]bool)
		for _, u := range dg.Adj {
			if dg.IsGhost(u) {
				referenced[u] = true
			}
		}
		if len(referenced) != dg.NGhost {
			t.Errorf("rank %d: %d ghosts but %d referenced", dg.Comm.Rank(), dg.NGhost, len(referenced))
		}
	})
}

func TestSingleRankHasNoGhosts(t *testing.T) {
	g := gen.ER(100, 400, 1)
	buildDistributed(t, g, 1, blockDist(g.N), func(dg *Graph) {
		if dg.NGhost != 0 {
			t.Errorf("single-rank ghost count %d", dg.NGhost)
		}
		if dg.NLocal != 100 {
			t.Errorf("NLocal = %d, want 100", dg.NLocal)
		}
	})
}

func TestExchangeUpdatesPropagatesToGhosts(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	shared := g.MustBuild()
	_ = shared
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		// Every rank updates all its owned vertices with value = gid%1000.
		vals := make([]int32, dg.NTotal())
		for i := range vals {
			vals[i] = -1
		}
		q := make([]Update, dg.NLocal)
		for v := 0; v < dg.NLocal; v++ {
			vals[v] = int32(dg.L2G[v] % 1000)
			q[v] = Update{LID: int32(v), Value: vals[v]}
		}
		recv := dg.AsyncExchanger().Flush(q)
		for _, upd := range recv {
			if !dg.IsGhost(upd.LID) {
				t.Errorf("rank %d received update for owned vertex", c.Rank())
				return
			}
			vals[upd.LID] = upd.Value
		}
		// All ghosts must now have the correct value.
		for i := 0; i < dg.NGhost; i++ {
			lid := dg.NLocal + i
			want := int32(dg.L2G[lid] % 1000)
			if vals[lid] != want {
				t.Errorf("rank %d ghost gid %d got %d, want %d", c.Rank(), dg.L2G[lid], vals[lid], want)
				return
			}
		}
	})
}

func TestExchangeUpdatesOnlyTouchedVertices(t *testing.T) {
	g := gen.ER(200, 1000, 13)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		// Update only the single owned vertex with smallest gid (if any).
		var q []Update
		if dg.NLocal > 0 {
			q = append(q, Update{LID: 0, Value: 7})
		}
		recv := dg.AsyncExchanger().Flush(q)
		// Received updates must reference ghosts whose gid is one of the
		// announced vertices (gid = first owned vertex of some rank).
		firstOwned := mpi.Allgather(c, dg.L2G[0])
		valid := map[int64]bool{}
		for _, gid := range firstOwned {
			valid[gid] = true
		}
		for _, upd := range recv {
			if !valid[dg.L2G[upd.LID]] {
				t.Errorf("rank %d got update for unexpected gid %d", c.Rank(), dg.L2G[upd.LID])
			}
			if upd.Value != 7 {
				t.Errorf("rank %d got value %d, want 7", c.Rank(), upd.Value)
			}
		}
	})
}

func TestGatherGlobal(t *testing.T) {
	g := gen.ER(150, 600, 17)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 2})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		vals := make([]int32, dg.NTotal())
		for v := 0; v < dg.NLocal; v++ {
			vals[v] = int32(dg.L2G[v] * 3)
		}
		full := dg.GatherGlobal(vals)
		for gid := int64(0); gid < g.N; gid++ {
			if full[gid] != int32(gid*3) {
				t.Errorf("rank %d: full[%d] = %d, want %d", c.Rank(), gid, full[gid], gid*3)
				return
			}
		}
	})
}

func TestEvaluateDistributedMatchesShared(t *testing.T) {
	g := gen.RMAT(10, 8, 21)
	shared := g.MustBuild()
	const p = 8 // parts
	// Shared-memory reference using vertex-block parts.
	refParts := partition.VertexBlock(shared, p)
	want := partition.Evaluate(shared, refParts, p)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 31})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		parts := make([]int32, dg.NTotal())
		for lid, gid := range dg.L2G {
			parts[lid] = refParts[gid]
		}
		got := EvaluateDistributed(dg, parts, p)
		if got.CutEdges != want.CutEdges {
			t.Errorf("CutEdges %d != %d", got.CutEdges, want.CutEdges)
		}
		if got.MaxPartCut != want.MaxPartCut {
			t.Errorf("MaxPartCut %d != %d", got.MaxPartCut, want.MaxPartCut)
		}
		for i := 0; i < p; i++ {
			if got.PartVerts[i] != want.PartVerts[i] {
				t.Errorf("PartVerts[%d] %d != %d", i, got.PartVerts[i], want.PartVerts[i])
			}
			if got.PartDegrees[i] != want.PartDegrees[i] {
				t.Errorf("PartDegrees[%d] %d != %d", i, got.PartDegrees[i], want.PartDegrees[i])
			}
			if got.PartCut[i] != want.PartCut[i] {
				t.Errorf("PartCut[%d] %d != %d", i, got.PartCut[i], want.PartCut[i])
			}
		}
	})
}

func TestFromEdgeChunksRejectsBadEdges(t *testing.T) {
	// Every rank passes a bad edge so all fail locally before entering
	// any collective (a single failing rank would deadlock, as real MPI
	// would).
	for _, bad := range []graph.Edge{{U: 0, V: 99}, {U: -1, V: 2}, {U: 10, V: 10}} {
		mpi.Run(2, func(c *mpi.Comm) {
			chunk := []graph.Edge{{U: 1, V: 2}, bad}
			dg, err := FromEdgeChunks(c, 10, chunk, BlockDist{N: 10, P: c.Size()})
			if err == nil {
				t.Errorf("rank %d: expected out-of-range error for %v", c.Rank(), bad)
				dg.Close()
			}
		})
	}
}

func TestExchangeUpdatesThreadedMatchesSerial(t *testing.T) {
	// The rank's thread budget must not change what a round delivers.
	g := gen.ER(400, 2400, 23)
	collect := func(threadsPerRank int) map[int64]int32 {
		out := map[int64]int32{}
		mpi.RunThreads(3, threadsPerRank, func(c *mpi.Comm) {
			dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
				HashDist{P: c.Size(), Seed: 8})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			defer dg.Close()
			q := make([]Update, dg.NLocal)
			for v := 0; v < dg.NLocal; v++ {
				q[v] = Update{LID: int32(v), Value: int32(dg.L2G[v] % 997)}
			}
			recv := dg.AsyncExchanger().Flush(q)
			pairs := make([]int64, 0, 2*len(recv)) // (gid, value) words
			for _, u := range recv {
				pairs = append(pairs, dg.L2G[u.LID], int64(u.Value))
			}
			all := mpi.Allgatherv(c, pairs)
			if c.Rank() == 0 {
				for _, rankPairs := range all {
					for i := 0; i+1 < len(rankPairs); i += 2 {
						out[rankPairs[i]] = int32(rankPairs[i+1])
					}
				}
			}
		})
		return out
	}
	serial := collect(1)
	threaded := collect(4)
	if len(serial) != len(threaded) {
		t.Fatalf("serial delivered %d gids, threaded %d", len(serial), len(threaded))
	}
	for gid, val := range serial {
		if threaded[gid] != val {
			t.Fatalf("gid %d: serial %d, threaded %d", gid, val, threaded[gid])
		}
	}
}

func TestExchangeEmptyQueueAllRanks(t *testing.T) {
	g := gen.ER(100, 400, 29)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		if recv := dg.AsyncExchanger().Flush(nil); len(recv) != 0 {
			t.Errorf("rank %d received %d updates from empty exchange", c.Rank(), len(recv))
		}
	})
}

func TestBoundaryVerticesCached(t *testing.T) {
	g := gen.Grid3D(5, 5, 5)
	mpi.Run(2, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		a := dg.BoundaryVertices()
		b := dg.BoundaryVertices()
		if len(a) != len(b) {
			t.Error("cached boundary differs")
		}
		// Every boundary vertex has a ghost neighbor; every ghost is
		// adjacent to some boundary vertex.
		for _, v := range a {
			found := false
			for _, u := range dg.Neighbors(v) {
				if dg.IsGhost(u) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("rank %d: vertex %d in boundary without ghost neighbor", c.Rank(), v)
				return
			}
		}
	})
}

func TestBeginPushRejectsOwnedLID(t *testing.T) {
	g := gen.ER(60, 240, 31)
	mpi.Run(2, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		// The panic fires before the round is posted, so Close (run
		// after the recover) has nothing in flight.
		defer dg.Close()
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: expected panic for owned lid", c.Rank())
			}
		}()
		dg.AsyncExchanger().BeginPush([]int32{0}, []int64{1}, nil)
	})
}
