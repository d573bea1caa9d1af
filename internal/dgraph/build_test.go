package dgraph

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// refShard is one rank's shard as buildReference assembles it.
type refShard struct {
	nLocal, nGhost int
	offsets        []int64
	adj            []int32
	l2g            []int64
	g2l            map[int64]int32
	degrees        []int64
	ghostOwner     []int32
	mGlobal        int64
}

// buildReference is the map-based build FromEdgeChunks replaced, kept
// as the oracle for it: every arc, this rank's own included, goes
// through one Alltoallv; a gid -> lid hash map resolves heads and
// numbers ghosts in first-seen CSR order; ghost degrees come back
// through two more Alltoallvs.
func buildReference(c *mpi.Comm, nGlobal int64, chunk []graph.Edge, dist Distribution) (*refShard, error) {
	nprocs := c.Size()
	counts := make([]int, nprocs)
	for _, e := range chunk {
		if e.U < 0 || e.U >= nGlobal || e.V < 0 || e.V >= nGlobal {
			return nil, fmt.Errorf("reference: edge (%d,%d) out of range [0,%d)", e.U, e.V, nGlobal)
		}
		counts[dist.Owner(e.U)] += 2
		if e.U != e.V {
			counts[dist.Owner(e.V)] += 2
		}
	}
	cursor := make([]int, nprocs)
	words := 0
	for r, n := range counts {
		cursor[r] = words
		words += n
	}
	sendBuf := make([]int64, words)
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

	s := &refShard{g2l: map[int64]int32{}}
	for gid := int64(0); gid < nGlobal; gid++ {
		if dist.Owner(gid) == c.Rank() {
			s.g2l[gid] = int32(len(s.l2g))
			s.l2g = append(s.l2g, gid)
		}
	}
	s.nLocal = len(s.l2g)
	deg := make([]int64, s.nLocal)
	for i := 0; i < len(recv); i += 2 {
		lid, ok := s.g2l[recv[i]]
		if !ok {
			return nil, fmt.Errorf("reference: rank %d received arc head %d it does not own", c.Rank(), recv[i])
		}
		deg[lid]++
	}
	s.offsets = make([]int64, s.nLocal+1)
	for i := 0; i < s.nLocal; i++ {
		s.offsets[i+1] = s.offsets[i] + deg[i]
	}
	adjGlobal := make([]int64, s.offsets[s.nLocal])
	fill := slices.Clone(s.offsets[:s.nLocal])
	for i := 0; i < len(recv); i += 2 {
		lid := s.g2l[recv[i]]
		adjGlobal[fill[lid]] = recv[i+1]
		fill[lid]++
	}
	for _, gid := range adjGlobal {
		if _, ok := s.g2l[gid]; !ok {
			s.g2l[gid] = int32(len(s.l2g))
			s.l2g = append(s.l2g, gid)
			s.ghostOwner = append(s.ghostOwner, int32(dist.Owner(gid)))
		}
	}
	s.nGhost = len(s.l2g) - s.nLocal
	s.adj = make([]int32, len(adjGlobal))
	for i, gid := range adjGlobal {
		s.adj[i] = s.g2l[gid]
	}

	// Ghost degrees: queries grouped by owner, answered in order.
	s.degrees = append(deg, make([]int64, s.nGhost)...)
	qCounts := make([]int, nprocs)
	for _, o := range s.ghostOwner {
		qCounts[o]++
	}
	var queries []int64
	var order []int
	for r := 0; r < nprocs; r++ {
		for i, o := range s.ghostOwner {
			if int(o) == r {
				queries = append(queries, s.l2g[s.nLocal+i])
				order = append(order, i)
			}
		}
	}
	recvQ, recvCounts := mpi.Alltoallv(c, queries, qCounts)
	answers := make([]int64, len(recvQ))
	for i, gid := range recvQ {
		answers[i] = deg[s.g2l[gid]]
	}
	back, _ := mpi.Alltoallv(c, answers, recvCounts)
	for qi, d := range back {
		s.degrees[s.nLocal+order[qi]] = d
	}
	s.mGlobal = mpi.AllreduceScalar(c, int64(len(s.adj)), mpi.Sum) / 2
	return s, nil
}

// diffShard reports the first field where dg differs from the
// reference, or "" when every field and every gid's LID agree.
func diffShard(dg *Graph, ref *refShard) string {
	switch {
	case dg.NLocal != ref.nLocal || dg.NGhost != ref.nGhost:
		return fmt.Sprintf("NLocal/NGhost %d/%d, reference %d/%d", dg.NLocal, dg.NGhost, ref.nLocal, ref.nGhost)
	case !slices.Equal(dg.Offsets, ref.offsets):
		return "Offsets"
	case !slices.Equal(dg.Adj, ref.adj):
		return "Adj"
	case !slices.Equal(dg.L2G, ref.l2g):
		return "L2G"
	case !slices.Equal(dg.GhostOwner, ref.ghostOwner):
		return "GhostOwner"
	case !slices.Equal(dg.Degrees, ref.degrees):
		return "Degrees"
	case dg.MGlobal != ref.mGlobal:
		return fmt.Sprintf("MGlobal %d, reference %d", dg.MGlobal, ref.mGlobal)
	}
	for gid := int64(0); gid < dg.NGlobal; gid++ {
		lid, ok := dg.LID(gid)
		want, wantOK := ref.g2l[gid]
		if ok != wantOK || (ok && lid != want) {
			return fmt.Sprintf("LID(%d) = %d, %v; reference %d, %v", gid, lid, ok, want, wantOK)
		}
	}
	return ""
}

// stripeParts returns a PartsDist placing gids in stripes of 7 dealt
// round-robin to p ranks.
func stripeParts(n int64, p int) Distribution {
	parts := make([]int32, n)
	for gid := range parts {
		parts[gid] = int32(gid / 7 % p)
	}
	return PartsDist{Parts: parts}
}

// checkAgainstReference builds the shard with FromEdgeChunks and with
// buildReference on p ranks and fails on any field that differs.
func checkAgainstReference(t *testing.T, name string, n int64, p int, chunk func(rank, nranks int) []graph.Edge, dist Distribution) {
	t.Helper()
	mpi.Run(p, func(c *mpi.Comm) {
		edges := chunk(c.Rank(), c.Size())
		dg, err := FromEdgeChunks(c, n, edges, dist)
		if err != nil {
			t.Errorf("%s rank %d: %v", name, c.Rank(), err)
			return
		}
		defer dg.Close()
		ref, err := buildReference(c, n, edges, dist)
		if err != nil {
			t.Errorf("%s rank %d: reference: %v", name, c.Rank(), err)
			return
		}
		if d := diffShard(dg, ref); d != "" {
			t.Errorf("%s rank %d: %s differs from the reference build", name, c.Rank(), d)
		}
		if err := dg.Validate(); err != nil {
			t.Errorf("%s rank %d: %v", name, c.Rank(), err)
		}
	})
}

// TestBuildMatchesReference pins FromEdgeChunks field by field to the
// map-based reference over every generator class, distribution and a
// spread of rank counts (small generators leave some ranks with empty
// chunks).
func TestBuildMatchesReference(t *testing.T) {
	gens := []*gen.Generator{
		gen.RMAT(8, 8, 3),
		gen.ER(300, 900, 5),
		gen.RandHD(300, 8, 7),
		gen.Grid3D(7, 6, 5),
		gen.WattsStrogatz(300, 6, 0.2, 9),
		gen.ChungLu(300, 900, 2.2, 11),
		gen.PrefAttach(200, 3, 13),
		gen.FromEdgeList("path", 40, pathEdges(40)),
	}
	for _, g := range gens {
		for _, p := range []int{1, 2, 3, 5} {
			dists := []Distribution{BlockDist{N: g.N, P: p}, HashDist{P: p, Seed: 17}, stripeParts(g.N, p)}
			for _, dist := range dists {
				name := fmt.Sprintf("%s/%s/p=%d", g.Name, dist.Name(), p)
				checkAgainstReference(t, name, g.N, p, g.EdgesChunk, dist)
			}
		}
	}
}

func pathEdges(n int64) []graph.Edge {
	out := make([]graph.Edge, 0, n-1)
	for v := int64(1); v < n; v++ {
		out = append(out, graph.Edge{U: v - 1, V: v})
	}
	return out
}

// TestBuildDegenerateInputsMatchReference covers self loops, duplicate
// edges (both orientations), isolated vertices (gids 20..29 appear in
// no edge) and a rank whose chunk is empty.
func TestBuildDegenerateInputsMatchReference(t *testing.T) {
	const n = 30
	edges := []graph.Edge{
		{U: 3, V: 3}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 5, V: 17},
		{U: 17, V: 17}, {U: 2, V: 19}, {U: 19, V: 2}, {U: 8, V: 8}, {U: 4, V: 11},
		{U: 11, V: 4}, {U: 6, V: 13}, {U: 13, V: 6}, {U: 9, V: 0}, {U: 0, V: 0},
	}
	// Rank 0 gets nothing; the rest deal the list in contiguous runs.
	chunk := func(rank, nranks int) []graph.Edge {
		if rank == 0 && nranks > 1 {
			return nil
		}
		k := int64(nranks - 1)
		r := int64(rank - 1)
		if nranks == 1 {
			k, r = 1, 0
		}
		lo, hi := int64(len(edges))*r/k, int64(len(edges))*(r+1)/k
		return edges[lo:hi]
	}
	for _, p := range []int{1, 2, 3, 5} {
		for _, dist := range []Distribution{BlockDist{N: n, P: p}, HashDist{P: p, Seed: 3}, stripeParts(n, p)} {
			checkAgainstReference(t, fmt.Sprintf("degenerate/%s/p=%d", dist.Name(), p), n, p, chunk, dist)
		}
	}
	// Every chunk empty: owned vertices only, no arcs, no ghosts.
	for _, p := range []int{1, 3} {
		checkAgainstReference(t, fmt.Sprintf("empty/p=%d", p), n, p,
			func(int, int) []graph.Edge { return nil }, HashDist{P: p, Seed: 1})
	}
}

// shiftDist owns gid on rank (gid+shift) mod p. Ranks built with
// different shifts disagree on every owner, so each receives arcs
// whose head it does not own.
type shiftDist struct{ p, shift int }

func (d shiftDist) Owner(gid int64) int { return int((gid + int64(d.shift)) % int64(d.p)) }
func (d shiftDist) Name() string        { return "shift" }

// TestBuildRejectsForeignHead: ranks whose distributions disagree ship
// arcs to a rank that does not own their head, and every such rank
// fails after the arc shuffle (both ranks here, so neither is left in a
// later collective).
func TestBuildRejectsForeignHead(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		chunk := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
		dg, err := FromEdgeChunks(c, 4, chunk, shiftDist{p: 2, shift: c.Rank()})
		if err == nil {
			t.Errorf("rank %d: foreign arc heads accepted", c.Rank())
			dg.Close()
		}
	})
}

// TestValidateRejectsCorruptShards corrupts a valid shard one field at
// a time: Validate must reject each corruption and accept the shard
// again once it is undone.
func TestValidateRejectsCorruptShards(t *testing.T) {
	g := gen.ER(300, 300, 21)
	corruptions := []struct {
		name string
		do   func(dg *Graph) (undo func())
	}{
		{"owned gids out of order", func(dg *Graph) func() {
			a, b := dg.L2G[0], dg.L2G[1]
			swap := func() {
				dg.L2G[0], dg.L2G[1] = dg.L2G[1], dg.L2G[0]
				dg.index[a], dg.index[b] = dg.index[b], dg.index[a]
			}
			swap()
			return swap
		}},
		{"duplicate ghost", func(dg *Graph) func() {
			old := dg.L2G[dg.NLocal+1]
			dg.L2G[dg.NLocal+1] = dg.L2G[dg.NLocal]
			return func() { dg.L2G[dg.NLocal+1] = old }
		}},
		{"ghost owned here", func(dg *Graph) func() {
			gh, own := dg.L2G[dg.NLocal], dg.L2G[0]
			dg.L2G[dg.NLocal], dg.L2G[0] = own, gh
			dg.index[gh], dg.index[own] = dg.index[own], dg.index[gh]
			return func() {
				dg.L2G[dg.NLocal], dg.L2G[0] = gh, own
				dg.index[gh], dg.index[own] = dg.index[own], dg.index[gh]
			}
		}},
		{"wrong ghost owner", func(dg *Graph) func() {
			old := dg.GhostOwner[0]
			dg.GhostOwner[0] = int32(dg.Comm.Rank())
			return func() { dg.GhostOwner[0] = old }
		}},
		{"stray index entry", func(dg *Graph) func() {
			gid := slices.Index(dg.index, 0)
			dg.index[gid] = 1
			return func() { dg.index[gid] = 0 }
		}},
		{"index off by one", func(dg *Graph) func() {
			gid := dg.L2G[dg.NLocal-1]
			dg.index[gid]--
			return func() { dg.index[gid]++ }
		}},
		{"short index", func(dg *Graph) func() {
			old := dg.index
			dg.index = old[:len(old)-1]
			return func() { dg.index = old }
		}},
		{"owned degree", func(dg *Graph) func() {
			dg.Degrees[0]++
			return func() { dg.Degrees[0]-- }
		}},
		{"adjacency out of range", func(dg *Graph) func() {
			old := dg.Adj[0]
			dg.Adj[0] = int32(dg.NTotal())
			return func() { dg.Adj[0] = old }
		}},
	}
	buildDistributed(t, g, 3, hashDist(), func(dg *Graph) {
		if dg.NLocal < 2 || dg.NGhost < 2 {
			t.Fatalf("rank %d: shard too small (%d owned, %d ghosts)", dg.Comm.Rank(), dg.NLocal, dg.NGhost)
		}
		for _, cr := range corruptions {
			undo := cr.do(dg)
			if dg.Validate() == nil {
				t.Errorf("rank %d: Validate accepted %s", dg.Comm.Rank(), cr.name)
			}
			undo()
			if err := dg.Validate(); err != nil {
				t.Errorf("rank %d: after undoing %s: %v", dg.Comm.Rank(), cr.name, err)
			}
		}
	})
}

// buildCase is one FromEdgeChunks workload of the byte budget and the
// benchmark, with its chunks generated up front.
type buildCase struct {
	name   string
	n      int64
	ranks  int
	chunks [][]graph.Edge
}

func buildCases() []buildCase {
	out := []buildCase{}
	for _, bc := range []struct {
		name  string
		g     *gen.Generator
		ranks int
	}{
		{"mesh32_1rank", gen.Grid3D(32, 32, 32), 1},
		{"rmat14_2ranks", gen.RMAT(14, 16, 1), 2},
	} {
		c := buildCase{name: bc.name, n: bc.g.N, ranks: bc.ranks}
		for r := 0; r < bc.ranks; r++ {
			c.chunks = append(c.chunks, bc.g.EdgesChunk(r, bc.ranks))
		}
		out = append(out, c)
	}
	return out
}

// dist is the distribution every build of the case uses.
func (bc buildCase) dist() Distribution { return HashDist{P: bc.ranks, Seed: 1} }

// run builds and closes the shard on every rank and returns the bytes
// of the shards' own arrays, summed over ranks.
func (bc buildCase) run() int64 {
	sizes := make([]int64, bc.ranks)
	mpi.Run(bc.ranks, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, bc.n, bc.chunks[c.Rank()], bc.dist())
		if err != nil {
			panic(err)
		}
		defer dg.Close()
		sizes[c.Rank()] = 8*int64(len(dg.Offsets)+len(dg.L2G)+len(dg.Degrees)) +
			4*int64(len(dg.Adj)+len(dg.GhostOwner)+len(dg.index))
	})
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	return sum
}

// shuffleBytes is what the arc shuffle must move: every arc whose head
// another rank owns, two words in the send buffer and two in the
// receive buffer.
func (bc buildCase) shuffleBytes() int64 {
	dist := bc.dist()
	var remote int64
	for r, chunk := range bc.chunks {
		for _, e := range chunk {
			if dist.Owner(e.U) != r {
				remote++
			}
			if e.U != e.V && dist.Owner(e.V) != r {
				remote++
			}
		}
	}
	return 32 * remote
}

// TestFromEdgeChunksByteBudget bounds what a build allocates: at most
// 1.5x the shard's own arrays plus the arc shuffle's send and receive
// buffers. A hash map on the build path, a copy of the self share or a
// regrowing adjacency each breaks it.
func TestFromEdgeChunksByteBudget(t *testing.T) {
	for _, bc := range buildCases() {
		bc.run() // warm the mpi world's pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		own := bc.run()
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		shuffle := bc.shuffleBytes()
		if limit := own*3/2 + shuffle; got > limit {
			t.Errorf("%s: build allocated %d bytes, budget %d (1.5 x %d of shard arrays + %d of arc shuffle)", bc.name, got, limit, own, shuffle)
		}
		t.Logf("%s: %d bytes allocated = %.2f x shard arrays + arc shuffle %d", bc.name, got, float64(got-shuffle)/float64(own), shuffle)
	}
}

func BenchmarkFromEdgeChunks(b *testing.B) {
	for _, bc := range buildCases() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.run()
			}
		})
	}
}
