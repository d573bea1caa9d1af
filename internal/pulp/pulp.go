// Package pulp reimplements the shared-memory PuLP-MM partitioner of
// Slota, Madduri, and Rajamanickam (IEEE BigData 2014), the prior work
// XtraPuLP extends and one of the paper's three comparison baselines.
//
// PuLP runs the same three conceptual stages as XtraPuLP — label
// propagation initialization, weighted vertex balancing, constrained
// refinement, then edge balancing — but in shared memory: part sizes
// are tracked exactly, so no distributed size estimation or damping
// multiplier is needed. Initialization runs serially. Every later sweep
// cuts the vertices into fixed chunks that propose moves in parallel;
// the moves are then admitted serially against the exact sizes, so the
// constraints hold and the output is the same at every thread count.
package pulp

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Options configures a PuLP run.
type Options struct {
	// NumParts is the number of parts to compute.
	NumParts int
	// Iouter, Ibal, Iref mirror the XtraPuLP stage counts (3, 5, 10).
	Iouter, Ibal, Iref int
	// InitIters is the number of unconstrained label propagation
	// rounds used for initialization (PuLP's LP init).
	InitIters int
	// VertImbalance and EdgeImbalance are the constraint ratios.
	VertImbalance, EdgeImbalance float64
	// SingleConstraint skips the edge-balancing stage.
	SingleConstraint bool
	// Threads bounds intra-process parallelism. The repo-wide rule:
	// 0 (or negative) selects one worker per core (par.DefaultThreads),
	// an explicit 1 runs serial. The partition does not depend on it.
	Threads int
	// Seed drives the randomized initialization.
	Seed uint64
}

// DefaultOptions returns PuLP's default configuration for p parts.
func DefaultOptions(p int) Options {
	return Options{
		NumParts:      p,
		Iouter:        3,
		Ibal:          5,
		Iref:          10,
		InitIters:     3,
		VertImbalance: 0.10,
		EdgeImbalance: 0.10,
		Threads:       0, // one worker per core; see Options.Threads
		Seed:          1,
	}
}

// Report carries timings from a run.
type Report struct {
	InitTime  time.Duration
	VertTime  time.Duration
	EdgeTime  time.Duration
	TotalTime time.Duration
	Quality   partition.Quality
}

// chunkGrain is the fixed length of the vertex chunks every sweep is
// cut into. The decomposition depends only on the vertex count, never
// on the thread count, so each chunk computes the same proposals
// whichever worker runs it, and a run is bit-identical at every thread
// count (the decomposition par.SumFloat64Ordered uses for its folds).
// Over RMAT 17 and a 64³ mesh at 16 parts, seeds 1-10, grains 4096,
// 8192 and 16384 cut within 1 % of each other and tied on wall time at
// one and two threads. The smallest keeps the most groups per sweep
// (see groupChunks) on those graphs.
const chunkGrain = 4096

// groupChunks is how many consecutive chunks propose together. Each
// group proposes against the labels and sizes the earlier groups' moves
// left, so a group does not propose to empty a part that an earlier
// group already emptied. With all chunks in one group, admission
// rejected 88-92 % of the first vertex-balancing round's proposals on
// RMAT 17 and the 64³ mesh, and a run took about 15 % more CPU time. A
// group keeps at most groupChunks workers busy.
const groupChunks = 8

// solver bundles the mutable state of one run.
type solver struct {
	g   *graph.Graph
	opt Options
	p   int

	parts  []int32 // committed labels; read-only while chunks propose
	sv     []int64 // exact committed vertex counts per part
	se     []int64 // exact committed degree sums per part
	tele   []int32 // per part, the current group's mostUnderweight target
	chunks []chunk

	imbV, imbE float64
	idealV     float64
}

// chunk is one fixed range of vertices and its per-sweep scratch. Its
// proposals land in the tally deltas at once, so later vertices of the
// chunk see the sizes they imply. Neighbor labels are read committed
// only (Jacobi): in-chunk label reads left the edge imbalance on RMAT
// graphs at 1.3-2.5.
type chunk struct {
	lo, hi int64
	dv, de []int64 // tally deltas of this sweep's proposals
	cnt    []int64 // per-part neighbor votes
	moves  []move  // this sweep's proposals, in vertex order
}

// move is a proposal: vertex v to part w.
type move struct {
	v int64
	w int32
}

// Partition computes a p-way partition of g with PuLP-MM.
//
//repro:deterministic
//repro:timing
func Partition(g *graph.Graph, opt Options) ([]int32, Report, error) {
	if opt.NumParts < 1 {
		return nil, Report{}, fmt.Errorf("pulp: NumParts = %d", opt.NumParts)
	}
	if int64(opt.NumParts) > g.N && g.N > 0 {
		opt.NumParts = int(g.N)
	}
	s := &solver{
		g:     g,
		opt:   opt,
		p:     opt.NumParts,
		parts: make([]int32, g.N),
		sv:    make([]int64, opt.NumParts),
		se:    make([]int64, opt.NumParts),
		tele:  make([]int32, opt.NumParts),
	}
	for lo := int64(0); lo < g.N; lo += chunkGrain {
		s.chunks = append(s.chunks, chunk{
			lo:  lo,
			hi:  min(lo+chunkGrain, g.N),
			dv:  make([]int64, s.p),
			de:  make([]int64, s.p),
			cnt: make([]int64, s.p),
		})
	}
	s.imbV = (1 + opt.VertImbalance) * float64(g.N) / float64(s.p)
	s.imbE = (1 + opt.EdgeImbalance) * float64(g.NumArcs()) / float64(s.p)
	s.idealV = float64(g.N) / float64(s.p)

	var rep Report
	start := time.Now()

	t0 := time.Now()
	s.initLP()
	rep.InitTime = time.Since(t0)

	t0 = time.Now()
	for outer := 0; outer < opt.Iouter; outer++ {
		s.vertBalance()
		s.refine(false)
	}
	rep.VertTime = time.Since(t0)

	if !opt.SingleConstraint {
		t0 = time.Now()
		for outer := 0; outer < opt.Iouter; outer++ {
			s.edgeBalance()
			s.refine(true) // refinement preserving both constraints
		}
		rep.EdgeTime = time.Since(t0)
	}

	rep.TotalTime = time.Since(start)
	rep.Quality = partition.Evaluate(g, s.parts, s.p)
	return s.parts, rep, nil
}

// threads returns the worker budget.
func (s *solver) threads() int { return par.ResolveThreads(s.opt.Threads) }

// recount rebuilds exact part tallies from assignments.
func (s *solver) recount() {
	for i := 0; i < s.p; i++ {
		s.sv[i], s.se[i] = 0, 0
	}
	for v := int64(0); v < s.g.N; v++ {
		pv := s.parts[v]
		s.sv[pv]++
		s.se[pv] += s.g.Degree(v)
	}
}

// sweep visits every vertex once, a group of chunks at a time. The
// group's chunks run propose in parallel, each over its own vertices in
// ascending order; propose returns the part vertex v (now in part x)
// wants, and a change enters the chunk's tally deltas at once. Then the
// proposals are admitted serially in ascending chunk and vertex order:
// admit re-checks each one against the exact committed tallies, so
// concurrent chunks can never jointly overfill a part, and a rejected
// vertex keeps its part.
func (s *solver) sweep(propose func(c *chunk, v int64, x int32) int32, admit func(v int64, x, w int32) bool) {
	for g0 := 0; g0 < len(s.chunks); g0 += groupChunks {
		group := s.chunks[g0:min(g0+groupChunks, len(s.chunks))]
		for x := range s.tele {
			s.tele[x] = s.mostUnderweight(int32(x))
		}
		par.For(0, len(group), s.threads(), func(ci int) {
			c := &group[ci]
			for v := c.lo; v < c.hi; v++ {
				x := s.parts[v]
				if w := propose(c, v, x); w != x {
					d := s.g.Degree(v)
					c.dv[x]--
					c.dv[w]++
					c.de[x] -= d
					c.de[w] += d
					c.moves = append(c.moves, move{v, w})
				}
			}
		})
		for ci := range group {
			c := &group[ci]
			for _, m := range c.moves {
				v, x, w := m.v, s.parts[m.v], m.w
				if !admit(v, x, w) {
					continue
				}
				d := s.g.Degree(v)
				s.sv[x]--
				s.sv[w]++
				s.se[x] -= d
				s.se[w] += d
				s.parts[v] = w
			}
			c.moves = c.moves[:0]
			clear(c.dv)
			clear(c.de)
		}
	}
}

// sizeV and sizeE are part i's vertex count and degree sum as chunk c
// sees them: the committed tallies plus c's own proposals.
func (s *solver) sizeV(c *chunk, i int32) float64 { return float64(s.sv[i] + c.dv[i]) }
func (s *solver) sizeE(c *chunk, i int32) float64 { return float64(s.se[i] + c.de[i]) }

// degreeVotes fills c.cnt with the degree-weighted committed parts of
// v's neighbors.
func (s *solver) degreeVotes(c *chunk, v int64) []int64 {
	cnt := c.cnt
	clear(cnt)
	for _, u := range s.g.Neighbors(v) {
		cnt[s.parts[u]] += s.g.Degree(u)
	}
	return cnt
}

// initLP assigns random parts and runs a few rounds of unconstrained
// degree-weighted label propagation, PuLP's initialization. It runs
// serially: each vertex sees the labels its predecessors just took, so
// one label floods each connected region, as in a serial PuLP run. On
// a mesh the vertex-balancing stage then peels parts off that flood as
// contiguous runs of vertices. Started from per-chunk floods, the 64³
// mesh's cut at 16 parts was 0.29 instead of 0.12.
func (s *solver) initLP() {
	r := rng.NewStream(s.opt.Seed, 0)
	for v := range s.parts {
		s.parts[v] = int32(r.Intn(s.p))
	}
	cnt := make([]int64, s.p)
	for iter := 0; iter < s.opt.InitIters; iter++ {
		for v := int64(0); v < s.g.N; v++ {
			clear(cnt)
			for _, u := range s.g.Neighbors(v) {
				cnt[s.parts[u]] += s.g.Degree(u)
			}
			w, best := s.parts[v], cnt[s.parts[v]]
			for i, n := range cnt {
				if n > best {
					best, w = n, int32(i)
				}
			}
			s.parts[v] = w
		}
	}
	s.recount()
}

// vertBalance moves vertices from parts above the ideal size toward
// underweight parts, weighting neighbor parts by ideal/size − 1 and
// teleporting when no underweight neighbor part exists.
func (s *solver) vertBalance() {
	propose := func(c *chunk, v int64, x int32) int32 {
		if s.sizeV(c, x) <= s.idealV {
			return x
		}
		cnt := s.degreeVotes(c, v)
		w, best := x, 0.0
		for i := int32(0); i < int32(s.p); i++ {
			if cnt[i] == 0 {
				continue // scores 0, never above best
			}
			size := s.sizeV(c, i)
			if size+1 > s.imbV {
				continue
			}
			if size < 1 {
				size = 1
			}
			wt := s.idealV/size - 1
			if wt < 0 {
				wt = 0
			}
			if sc := float64(cnt[i]) * wt; sc > best {
				best, w = sc, i
			}
		}
		if w == x || best <= 0 {
			w = s.tele[x]
		}
		return w
	}
	admit := func(_ int64, x, w int32) bool {
		return float64(s.sv[x]) > s.idealV && float64(s.sv[w]+1) <= s.imbV
	}
	for iter := 0; iter < s.opt.Ibal; iter++ {
		s.sweep(propose, admit)
	}
}

// mostUnderweight returns the part with the highest committed vertex
// deficit (excluding x) that can still accept a vertex, or x if none
// can. Teleports go there (s.tele). It ignores the chunks' proposals,
// so a group of chunks sends all its teleports to one part until
// admission fills it, in vertex order; a chunk's view would send
// consecutive vertices to different parts.
func (s *solver) mostUnderweight(x int32) int32 {
	w, bestW := x, 0.0
	for i := int32(0); i < int32(s.p); i++ {
		if i == x {
			continue
		}
		size := float64(s.sv[i])
		if size+1 > s.imbV {
			continue
		}
		if size < 1 {
			size = 1
		}
		if wv := s.idealV/size - 1; wv > bestW {
			bestW, w = wv, i
		}
	}
	return w
}

// refine is plurality label propagation constrained by the vertex cap,
// and additionally by the edge cap once the edge stage is active so
// refinement cannot undo edge balance.
func (s *solver) refine(enforceEdge bool) {
	fits := func(sv, se, dv float64) bool {
		return sv+1 <= s.imbV && (!enforceEdge || se+dv <= s.imbE)
	}
	propose := func(c *chunk, v int64, x int32) int32 {
		cnt := c.cnt
		clear(cnt)
		for _, u := range s.g.Neighbors(v) {
			cnt[s.parts[u]]++
		}
		dv := float64(s.g.Degree(v))
		w, best := x, cnt[x]
		for i, n := range cnt {
			if n <= best || !fits(s.sizeV(c, int32(i)), s.sizeE(c, int32(i)), dv) {
				continue
			}
			best, w = n, int32(i)
		}
		return w
	}
	admit := func(v int64, _, w int32) bool {
		return fits(float64(s.sv[w]), float64(s.se[w]), float64(s.g.Degree(v)))
	}
	for iter := 0; iter < s.opt.Iref; iter++ {
		s.sweep(propose, admit)
	}
}

// edgeBalance shifts degree weight out of parts exceeding the edge
// target into edge-underweight parts, respecting the vertex cap.
// Vertices without edges move too, from parts above the ideal vertex
// count to the most underweight part. That costs no cut or degree
// weight, and it frees vertex room in edge-light parts. Without it, the
// vertex stages left 14 of 16 parts of RMAT 17 at the vertex cap, and
// the two edge-heavy parts had nowhere to shed (edge imbalance 1.3-1.7).
func (s *solver) edgeBalance() {
	fits := func(sv, se, dv float64) bool {
		return se+dv <= s.imbE && sv+1 <= s.imbV
	}
	propose := func(c *chunk, v int64, x int32) int32 {
		if s.g.Degree(v) == 0 {
			if s.sizeV(c, x) <= s.idealV {
				return x
			}
			return s.tele[x]
		}
		if s.sizeE(c, x) <= s.imbE {
			return x
		}
		cnt := s.degreeVotes(c, v)
		dv := float64(s.g.Degree(v))
		w, best := x, 0.0
		for i := int32(0); i < int32(s.p); i++ {
			ei := s.sizeE(c, i)
			if !fits(s.sizeV(c, i), ei, dv) {
				continue
			}
			if ei < 1 {
				ei = 1
			}
			wt := s.imbE/ei - 1
			if wt < 0 {
				wt = 0
			}
			if sc := float64(cnt[i]+1) * wt; sc > best {
				best, w = sc, i
			}
		}
		if best <= 0 {
			return x
		}
		return w
	}
	admit := func(v int64, x, w int32) bool {
		if s.g.Degree(v) == 0 {
			return float64(s.sv[x]) > s.idealV && float64(s.sv[w]+1) <= s.imbV
		}
		return float64(s.se[x]) > s.imbE && fits(float64(s.sv[w]), float64(s.se[w]), float64(s.g.Degree(v)))
	}
	for iter := 0; iter < s.opt.Ibal; iter++ {
		s.sweep(propose, admit)
	}
}
