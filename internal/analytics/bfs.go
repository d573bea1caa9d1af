package analytics

import (
	"sync/atomic"
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// BFS runs a distributed breadth-first search from the global vertex
// srcGID, returning hop levels for owned vertices (-1 if unreachable)
// and the eccentricity of the source. Each round performs local
// frontier expansion, pushes discoveries of remote-owned vertices to
// their owners, refreshes ghost copies, and tests global termination.
//
// The rounds run split-phase AND pipelined to depth two, as the
// one-wave case of the wave engine (bfsWaves, hc_waves.go): the
// boundary part of the frontier — the only part that can discover
// ghosts — expands first and its discoveries are pushed with BeginPush
// while the PREVIOUS depth's ghost-refresh round is still in flight, so
// two rounds of messages overlap each other plus the interior
// expansion. In async mode on a complete rank neighborhood the refresh
// carries the frontier size as a piggybacked counter, so termination
// needs no per-round Allreduce; otherwise every round ends in an exact
// Allreduce. Levels are identical across modes: all discoveries within
// a round get the same depth, so expansion order cannot change results,
// and a boundary expansion that reads a one-round-stale ghost copy can
// only re-discover a vertex its owner already leveled — the owner keeps
// the first (correct) level and drops the redundant push.
//
//repro:deterministic
func BFS(g *dgraph.Graph, srcGID int64) (levels []int64, ecc int64) {
	return bfsRun(g, newEngine(g), srcGID)
}

// bfsRun is BFS over a caller-provided engine, so callers that run
// several sweeps (SCC) share one engine and its accumulated sweep time.
func bfsRun(g *dgraph.Graph, e *engine, srcGID int64) (levels []int64, ecc int64) {
	if g.NGlobal == 0 {
		// Degenerate shard: no vertices anywhere, so every rank
		// returns here before any round — symmetric, and it skips a
		// final eccentricity Allreduce over an empty level array.
		return make([]int64, 0), 0
	}
	// The one-wave case of the wave engine; the lone batch is the last,
	// so its levels may be kept.
	bfsWaves(g, e, []int64{srcGID}, 1, func(l []int64) { levels = l })
	// The reduction reads a never-reassigned copy, which its closure
	// captures by value: capturing the assigned levels itself would
	// move it to the heap on every sweep.
	owned := levels
	maxLevel := par.MaxInt64(0, g.NLocal, e.threads, 0, func(v int) int64 { return owned[v] })
	return levels, mpi.AllreduceScalar(g.Comm, maxLevel, mpi.Max)
}

// seedLevels resets the level array all to unvisited, gives the source
// srcGID level 0 wherever this rank holds a copy of it, and returns
// frontier holding the source if this rank owns it.
func seedLevels(g *dgraph.Graph, all []int64, srcGID int64, frontier []int32) []int32 {
	for i := range all {
		all[i] = -1
	}
	if lid, ok := g.LID(srcGID); ok {
		all[lid] = 0
		if !g.IsGhost(lid) {
			frontier = append(frontier, lid)
		}
	}
	return frontier
}

// bfsRound accumulates one BFS round's discoveries (expandFrontier):
// unvisited neighbors get this round's level, ghosts queue for the
// owner push, owned vertices join the next frontier.
type bfsRound struct {
	next        []int32
	ghostFound  []int32
	ghostLevels []int64
}

// Frontier filters for expandFrontier: the wave engine expands
// the boundary part of the frontier (the only part that can discover
// ghosts) before the interior part.
const (
	bfsBoundaryOnly int8 = iota
	bfsInteriorOnly
)

// expandChunk is the per-thread expansion body: scan the chunk's
// frontier vertices and claim unvisited neighbors with a CAS on the
// level array. Every same-round claim writes the same value (depth+1),
// so which thread wins is irrelevant to levels, and the CAS dedupes
// exactly — each discovery lands in exactly one thread's lane. Lane
// merge order (thread id, then scan order) can differ run to run at
// threads > 1, but only the ORDER of the frontier/push lists varies,
// never their contents; every downstream merge is first-discovery-wins
// over equal values.
//
//repro:hotpath
func (e *engine) expandChunk(lo, hi, tid int) {
	g, all, depth := e.g, e.ball, e.bdepth
	for i := lo; i < hi; i++ {
		v := e.bfrontier[i]
		if g.IsBoundaryVertex(v) != (e.bfilter == bfsBoundaryOnly) {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if atomic.LoadInt64(&all[u]) >= 0 {
				continue
			}
			if !atomic.CompareAndSwapInt64(&all[u], -1, depth+1) {
				continue
			}
			if g.IsGhost(u) {
				e.qGhost.Push(tid, u)
			} else {
				e.qNext.Push(tid, u)
			}
		}
	}
}

// expandFrontier runs one parallel frontier-expansion sweep and
// appends the discoveries to rd: owned vertices to rd.next, ghosts to
// rd.ghostFound with level depth+1.
//
//repro:timing
func (e *engine) expandFrontier(rd *bfsRound, all []int64, frontier []int32, depth int64, filter int8) {
	start := time.Now()
	e.ball, e.bfrontier, e.bdepth, e.bfilter = all, frontier, depth, filter
	par.ForChunk(0, len(frontier), e.threads, e.expandBody)
	rd.next = e.qNext.MergeInto(rd.next)
	before := len(rd.ghostFound)
	rd.ghostFound = e.qGhost.MergeInto(rd.ghostFound)
	for range rd.ghostFound[before:] {
		rd.ghostLevels = append(rd.ghostLevels, depth+1)
	}
	e.sweepTime += time.Since(start)
}

// HarmonicCentrality computes harmonic centrality for the given source
// vertices (the paper uses 100 sources on WDC12; scaled runs pass
// fewer): for each source a full BFS accumulates 1/d(s, v) onto every
// reached vertex. It returns the accumulated centralities for owned
// vertices.
//
// The sources run as hcWaves(g) concurrent waves sharing the
// exchanger's depth-k pipeline (see hc_waves.go): wave i's push and
// refresh rounds interleave with wave i+1's, and no per-source
// eccentricity Allreduce is paid; in async mode on a complete rank
// neighborhood the per-wave termination counters ride the tally frames
// too. Centralities are bit-identical across modes, wave counts, and
// pipeline depths.
//
//repro:deterministic
//repro:timing
func HarmonicCentrality(g *dgraph.Graph, sources []int64) ([]float64, Result) {
	start := time.Now()
	hc := make([]float64, g.NLocal)
	e := newEngine(g)
	// Parallel over vertices, sequential over sources: each hc[v]
	// accumulates its sources in source order, so the float sums are
	// bit-identical across modes and wave counts.
	accumulate := func(levels []int64) {
		par.For(0, g.NLocal, e.threads, func(v int) {
			if levels[v] > 0 {
				hc[v] += 1.0 / float64(levels[v])
			}
		})
	}
	bfsWaves(g, e, sources, hcWaves(g), accumulate)
	maxHC := par.MaxFloat64(0, len(hc), e.threads, 0, func(i int) float64 { return hc[i] })
	maxHC = mpi.AllreduceScalar(g.Comm, maxHC, mpi.Max)
	return hc, Result{Name: "HC", Iterations: len(sources), Time: time.Since(start), SweepTime: e.sweepTime, Value: maxHC}
}

// SCC extracts the pivot's strongly connected component with the FW-BW
// double sweep (forward reachability, backward reachability, and their
// intersection) from the globally maximum-degree vertex. On the
// undirected proxies both sweeps coincide (see the package comment for
// the substitution rationale); both are executed to preserve the
// communication pattern. Returns owned membership flags (1 = in the
// pivot's SCC) and the component size.
//
//repro:deterministic
//repro:timing
func SCC(g *dgraph.Graph) ([]int64, Result) {
	start := time.Now()

	// Pivot selection: globally maximum degree, ties to smaller gid.
	var bestDeg, bestGID int64 = -1, -1
	for v := 0; v < g.NLocal; v++ {
		d := g.Degree(int32(v))
		if d > bestDeg || (d == bestDeg && g.L2G[v] < bestGID) {
			bestDeg, bestGID = d, g.L2G[v]
		}
	}
	cands := mpi.Allgatherv(g.Comm, []int64{bestDeg, bestGID})
	pivot := int64(-1)
	var pivotDeg int64 = -1
	for _, c := range cands {
		deg, gid := c[0], c[1]
		if gid < 0 {
			continue // rank owned no vertices
		}
		if deg > pivotDeg || (deg == pivotDeg && gid < pivot) {
			pivotDeg, pivot = deg, gid
		}
	}
	if pivot < 0 {
		// Empty graph: no rank owned a vertex, so there is no pivot to
		// sweep from. Every rank sees the same empty candidate list, so
		// returning before the BFS sweeps is collectively symmetric.
		return make([]int64, 0), Result{Name: "SCC", Iterations: 0, Time: time.Since(start), Value: 0}
	}

	e := newEngine(g)
	fw, _ := bfsRun(g, e, pivot) // forward sweep
	bw, _ := bfsRun(g, e, pivot) // backward sweep (transpose == same graph)

	member := make([]int64, g.NLocal)
	sizeLocal := par.ReduceInt64(0, g.NLocal, e.threads, func(v int) int64 {
		if fw[v] >= 0 && bw[v] >= 0 {
			member[v] = 1
			return 1
		}
		return 0
	})
	size := mpi.AllreduceScalar(g.Comm, sizeLocal, mpi.Sum)
	return member, Result{Name: "SCC", Iterations: 2, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(size)}
}

// RunAll executes the paper's six analytics in Fig. 8's order (HC, KC,
// LP, PR, SCC, WCC) with scaled default parameters and returns their
// results.
//
//repro:deterministic
func RunAll(g *dgraph.Graph, hcSources int) []Result {
	srcs := HCSourceList(hcSources, g.NGlobal)
	_, hc := HarmonicCentrality(g, srcs)
	_, kc := KCore(g, 50)
	_, lp := LabelProp(g, 10)
	_, pr := PageRank(g, 20, 0.85)
	_, scc := SCC(g)
	_, wcc := WCC(g)
	return []Result{hc, kc, lp, pr, scc, wcc}
}

// HCSourceList derives up to n DISTINCT harmonic-centrality sources by
// Fibonacci-hashing the vertex space — RunAll's source schedule,
// shared with the harness so experiments measure the same access
// pattern. The hash is injective only while the multiplier and nGlobal
// are coprime; the dedupe makes the no-source-counted-twice guarantee
// unconditional, and a request for more distinct sources than vertices
// stops at nGlobal.
//
//repro:deterministic
func HCSourceList(n int, nGlobal int64) []int64 {
	srcs := make([]int64, 0, n)
	seen := make(map[int64]struct{}, n)
	for i := 0; len(srcs) < n && int64(i) < nGlobal; i++ {
		s := (int64(i) * 2654435761) % nGlobal
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		srcs = append(srcs, s)
	}
	return srcs
}

// ApproxDiameter estimates the graph diameter with the paper's §IV
// procedure, distributed: run `rounds` BFS sweeps, each starting from
// a vertex on the farthest level of the previous sweep, and report the
// largest eccentricity seen. Root selection is deterministic (smallest
// gid on the farthest level) so every rank agrees without extra
// communication beyond the existing reductions.
//
//repro:deterministic
func ApproxDiameter(g *dgraph.Graph, rounds int, startGID int64) int64 {
	if g.NGlobal == 0 || rounds <= 0 {
		return 0
	}
	src := startGID % g.NGlobal
	var best int64
	for i := 0; i < rounds; i++ {
		levels, ecc := BFS(g, src)
		if ecc > best {
			best = ecc
		}
		// Next source: globally smallest gid on the farthest level.
		next := int64(-1)
		for v := 0; v < g.NLocal; v++ {
			if levels[v] == ecc && (next < 0 || g.L2G[v] < next) {
				next = g.L2G[v]
			}
		}
		// Encode "no candidate" as max so Min picks a real gid.
		if next < 0 {
			next = g.NGlobal
		}
		next = mpi.AllreduceScalar(g.Comm, next, mpi.Min)
		if next >= g.NGlobal {
			break // no vertex reached; disconnected from everything
		}
		src = next
	}
	return best
}
