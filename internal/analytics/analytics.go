// Package analytics implements the six distributed graph analytics of
// the paper's Fig. 8 experiment (algorithms from Slota, Rajamanickam,
// and Madduri, IPDPS 2016 [29]): Harmonic Centrality (HC), approximate
// K-Core decomposition (KC), Label Propagation community detection
// (LP), PageRank (PR), largest "strongly" connected component
// extraction (SCC), and Weakly Connected Components (WCC).
//
// Every analytic runs collectively on a dgraph shard with the paper's
// pattern: rank-local compute over owned vertices, boundary value
// exchange each iteration, and a global termination test — so
// per-analytic runtime responds to partition quality (cut size drives
// exchange volume) exactly as in the paper. On the synchronous engine
// the termination test is an Allreduce; on the async delta engine
// (Graph.SetAsyncExchange) the iterations run split-phase — interior
// vertices are relaxed while boundary values are in flight — and the
// convergence counters ride the value messages as piggybacked tally
// frames (see overlap.go), eliminating the per-round Allreduce on
// complete rank neighborhoods. Results are bit-identical across
// engines.
//
// Substitution note: the paper runs SCC on a directed web crawl. Our
// generated proxies are undirected, so SCC here performs the
// forward/backward double-sweep of the FW-BW algorithm from a
// max-degree pivot (two reachability passes plus the trim phase). On a
// symmetric graph both sweeps reach the same set; the communication
// profile — the expensive part Fig. 8 measures — is preserved.
package analytics

import (
	"math"
	"slices"
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Result reports one analytic's execution.
type Result struct {
	// Name is the analytic's short code (HC, KC, LP, PR, SCC, WCC).
	Name string
	// Iterations is the number of global rounds executed.
	Iterations int
	// Time is the wall-clock duration on this rank.
	Time time.Duration
	// SweepTime is the wall-clock time this rank spent inside the
	// intra-rank relaxation/expansion sweeps (the compute the
	// ThreadsPerRank knob parallelizes), excluding communication.
	SweepTime time.Duration
	// Value is an analytic-specific scalar result (for example the
	// number of components for WCC, or the largest component size).
	Value float64
}

// PageRank runs iters rounds of damped PageRank and returns the owned
// vertices' ranks (indexed by local id) plus the result record.
//
// Dangling mass (degree-0 owned vertices) is redistributed uniformly,
// keeping the rank vector a distribution. The two global quantities —
// per-iteration dangling mass and the final norm — share one fused
// length-2 vector Allreduce per iteration in sync mode; in overlapped
// async mode the dangling partial rides the boundary value messages as
// a tally frame folded in global rank order, so iterations perform no
// reduction at all on complete rank neighborhoods. Ranks are
// bit-identical across all modes.
//
//repro:deterministic
//repro:timing
func PageRank(g *dgraph.Graph, iters int, damping float64) ([]float64, Result) {
	start := time.Now()
	n := float64(g.NGlobal)
	vals := make([]float64, g.NTotal())
	next := make([]float64, g.NLocal)
	for i := range vals {
		vals[i] = 1.0 / n
	}
	e := newEngine(g)
	bnd, inr := g.BoundaryVertices(), g.InteriorVertices()

	// deg0 lists the dangling owned vertices ascending. Their next
	// value is exactly the iteration's base (no neighbors), which keeps
	// the next dangling partial computable before the interior sweep —
	// what lets it ride this round's messages in overlapped mode.
	var deg0 []int32
	for v := 0; v < g.NLocal; v++ {
		if g.Degree(int32(v)) == 0 {
			deg0 = append(deg0, int32(v))
		}
	}

	// Prologue: global dangling mass of the uniform start.
	var danglingLocal float64
	for _, v := range deg0 {
		danglingLocal += vals[v]
	}
	dangling := mpi.AllreduceScalar(g.Comm, danglingLocal, mpi.Sum)

	// PageRank is already Jacobi (vals → next), so the sweeps
	// parallelize directly: each worker writes its own next[v] slots
	// from the round-frozen vals. The local norm uses the ordered float
	// reduction — a fixed chunk decomposition folded in ascending chunk
	// order — so both modes at every thread count produce the same
	// bits.
	var base float64
	relax := func(v int32) {
		var sum float64
		for _, u := range g.Neighbors(v) {
			sum += vals[u] / float64(g.Degrees[u])
		}
		next[v] = base + damping*sum
	}
	sweep := func(list []int32) {
		t0 := time.Now()
		par.For(0, len(list), e.threads, func(i int) { relax(list[i]) })
		e.sweepTime += time.Since(t0)
	}
	var normSrc []float64
	var fpart []float64
	normBody := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += normSrc[i]
		}
		return s
	}

	norm := 0.0
	normDone := false
	if e.overlapped() {
		for it := 0; it < iters; it++ {
			base = (1-damping)/n + damping*dangling/n
			sweep(bnd)
			// Next iteration's dangling partial: every dangling vertex
			// takes exactly base this iteration (summed per vertex to
			// keep the accumulation order of the sync path).
			var dL float64
			for range deg0 {
				dL += base
			}
			e.payload = e.payload[:0]
			for _, v := range bnd {
				e.payload = append(e.payload, int64(math.Float64bits(next[v])))
			}
			var tally []int64
			if e.complete {
				e.tally[0] = int64(math.Float64bits(dL))
				tally = e.tally[:1]
			}
			e.ex.BeginValues(bnd, e.payload, tally)
			sweep(inr)
			copy(vals[:g.NLocal], next)
			outL, outP, tr := e.ex.FlushValues()
			for i, lid := range outL {
				vals[lid] = math.Float64frombits(uint64(outP[i]))
			}
			if e.complete {
				dangling = tr.FoldFloat(0)
			} else {
				dangling = mpi.AllreduceScalar(g.Comm, dL, mpi.Sum)
			}
		}
	} else {
		for it := 0; it < iters; it++ {
			base = (1-damping)/n + damping*dangling/n
			sweep(bnd)
			sweep(inr)
			copy(vals[:g.NLocal], next)
			g.ExchangeFloat64(bnd, vals)
			// Fused end-of-iteration reduction: the next iteration's
			// dangling mass and the current norm in one vector
			// Allreduce (the last iteration's norm is the result).
			var dL, nL float64
			for _, v := range deg0 {
				dL += next[v]
			}
			normSrc = next
			nL, fpart = par.SumFloat64Ordered(0, g.NLocal, e.threads, fpart, normBody)
			red := mpi.Allreduce(g.Comm, []float64{dL, nL}, mpi.Sum)
			dangling, norm = red[0], red[1]
			normDone = true
		}
	}
	elapsed := time.Since(start)
	if !normDone {
		// vals[:NLocal] holds the same bits next held after the last
		// async iteration (or the uniform start when iters == 0), and
		// the decomposition is thread-count independent, so this norm
		// matches the sync path's exactly.
		var nL float64
		normSrc = vals
		nL, fpart = par.SumFloat64Ordered(0, g.NLocal, e.threads, fpart, normBody)
		norm = mpi.AllreduceScalar(g.Comm, nL, mpi.Sum)
	}
	return vals[:g.NLocal], Result{Name: "PR", Iterations: iters, Time: elapsed, SweepTime: e.sweepTime, Value: norm}
}

// WCC labels every vertex with the minimum global id in its connected
// component and returns owned labels plus the component count.
//
// It runs local-then-global, after HPCGraph's connectivity: a serial
// union-find over the rank's owned arcs (ghosts as members) first
// collapses every rank-local piece of a component, each starting from
// its members' minimum gid (a ghost's gid is a safe start: the ghost
// lies in the same global component). The engine's rounds then only
// carry minima across ranks — each round's hook folds every ghost's
// current label into its local piece — so the rounds are bounded by
// the hops between rank-local pieces plus one confirming round, not by
// the graph's diameter. Result.Iterations counts those rounds.
//
//repro:deterministic
//repro:timing
func WCC(g *dgraph.Graph) ([]int64, Result) {
	start := time.Now()
	labels := make([]int64, g.NTotal())
	for lid, gid := range g.L2G {
		labels[lid] = gid
	}
	comp := localComponents(g)
	// compMin[r] is the smallest label known for the local piece rooted
	// at r; it only ever falls, and only between rounds.
	compMin := slices.Clone(labels)
	for lid, r := range comp {
		compMin[r] = min(compMin[r], labels[lid])
	}
	e := newEngine(g)
	e.pre = func() {
		for gh := g.NLocal; gh < len(comp); gh++ {
			r := comp[gh]
			compMin[r] = min(compMin[r], labels[gh])
		}
	}
	relax := func(v int32, _ int) (int64, bool) {
		best := compMin[comp[v]]
		return best, best < labels[v]
	}
	iters := e.propagate(labels, relax, 0)
	// Count components: owned vertices whose label equals their gid.
	rootsLocal := par.ReduceInt64(0, g.NLocal, e.threads, func(v int) int64 {
		if labels[v] == g.L2G[v] {
			return 1
		}
		return 0
	})
	comps := mpi.AllreduceScalar(g.Comm, rootsLocal, mpi.Sum)
	return labels[:g.NLocal], Result{Name: "WCC", Iterations: iters, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(comps)}
}

// localComponents runs a serial union-find over the owned arcs, ghosts
// included as members, and returns each local id's component root.
// Finds halve paths and unions link the larger root under the smaller,
// so every root is its component's smallest lid, whatever the order
// of the unions.
func localComponents(g *dgraph.Graph) []int32 {
	parent := make([]int32, g.NTotal())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := int32(0); int(v) < g.NLocal; v++ {
		for _, u := range g.Neighbors(v) {
			a, b := find(v), find(u)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	for i := range parent {
		parent[i] = find(int32(i))
	}
	return parent
}

// LabelProp runs up to iters rounds of plurality label propagation
// community detection and returns owned community labels plus the
// GLOBAL number of distinct communities (hash-partitioned exact count,
// identical on every rank — the LP analogue of WCC's component count).
// Each round a vertex with neighbours takes the label most frequent
// among them, ties to the smallest label (see plurality); isolated
// vertices keep their own. Result.Iterations reports the rounds
// actually executed, which is below iters when propagation reaches a
// fixed point early.
//
//repro:deterministic
//repro:timing
func LabelProp(g *dgraph.Graph, iters int) ([]int64, Result) {
	start := time.Now()
	labels := make([]int64, g.NTotal())
	for lid, gid := range g.L2G {
		labels[lid] = gid
	}
	e := newEngine(g)
	// One neighbour-label buffer per worker thread: relax runs with the
	// sweep's tid and touches only its own scratch, which grows to the
	// largest degree once and is reused for every later vertex.
	scratch := make([][]int64, e.threads)
	relax := func(v int32, tid int) (int64, bool) {
		cur := labels[v]
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			return cur, false
		}
		buf := scratch[tid][:0]
		for _, u := range nbrs {
			buf = append(buf, labels[u])
		}
		scratch[tid] = buf
		best := plurality(buf)
		return best, best != cur
	}
	ran := e.propagate(labels, relax, iters)
	comms := globalDistinct(g, labels[:g.NLocal])
	return labels[:g.NLocal], Result{Name: "LP", Iterations: ran, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(comms)}
}

// plurality returns the most frequent label in buf, ties to the
// smallest label. It sorts buf in place and takes the longest run of
// equal labels, so it needs no count table and its cost depends only
// on len(buf). buf must be non-empty.
//
//repro:hotpath
func plurality(buf []int64) int64 {
	slices.Sort(buf)
	best, bestN := buf[0], 0
	for i := 0; i < len(buf); {
		j := i + 1
		for j < len(buf) && buf[j] == buf[i] {
			j++
		}
		// Runs arrive in ascending label order, so a strictly longer
		// run is the only way to displace the current best.
		if j-i > bestN {
			best, bestN = buf[i], j-i
		}
		i = j
	}
	return best
}

// globalDistinct counts the distinct values among every rank's owned
// labels exactly. Labels are partitioned by hash: each rank ships its
// locally distinct labels to the owning counter rank, which dedupes
// what it receives, and one Allreduce sums the per-rank counts — so a
// community spanning several ranks is counted exactly once, unlike the
// old rank-local count, which disagreed across ranks and overcounted
// shared communities. Collective; every rank returns the same count.
func globalDistinct(g *dgraph.Graph, labels []int64) int64 {
	nprocs := g.Comm.Size()
	// Sorted and deduplicated, the send buffer's per-destination
	// segments come out ascending, so the wire bytes are the same on
	// every run.
	distinctLocal := slices.Clone(labels)
	slices.Sort(distinctLocal)
	distinctLocal = slices.Compact(distinctLocal)
	counts := make([]int, nprocs)
	dest := func(l int64) int { return int(uint64(l) % uint64(nprocs)) }
	for _, l := range distinctLocal {
		counts[dest(l)]++
	}
	offsets := make([]int, nprocs+1)
	for r := 0; r < nprocs; r++ {
		offsets[r+1] = offsets[r] + counts[r]
	}
	sendBuf := make([]int64, offsets[nprocs])
	cursor := make([]int, nprocs)
	copy(cursor, offsets[:nprocs])
	for _, l := range distinctLocal {
		d := dest(l)
		sendBuf[cursor[d]] = l
		cursor[d]++
	}
	recv, _ := mpi.Alltoallv(g.Comm, sendBuf, counts)
	slices.Sort(recv)
	return mpi.AllreduceScalar(g.Comm, int64(len(slices.Compact(recv))), mpi.Sum)
}

// KCore computes the approximate k-core decomposition by iterated
// h-index refinement (each vertex's core estimate becomes the h-index
// of its neighbors' estimates), which converges to the exact coreness.
// maxIters bounds the rounds, matching the paper's approximate variant.
//
// Estimates only fall, so a round commits h only when h < core[v].
// Each relaxation first runs Montresor et al.'s count test (see
// hIndexAtLeast): when at least core[v] neighbours still hold an
// estimate ≥ core[v], the h-index is ≥ core[v] and nothing can change,
// so the full h-index is computed only for vertices whose estimate
// must drop. Coreness, rounds and the maximum are exactly those of the
// plain rule.
//
//repro:deterministic
//repro:timing
func KCore(g *dgraph.Graph, maxIters int) ([]int64, Result) {
	start := time.Now()
	core := make([]int64, g.NTotal())
	for lid := range core {
		core[lid] = g.Degrees[lid]
	}
	e := newEngine(g)
	// Per-thread h-index scratch: each worker owns one (hbuf, bkts)
	// pair, so the pooled-buffer discipline hIndex relies on survives
	// the parallel sweep.
	type hScratch struct{ hbuf, bkts []int64 }
	scratch := make([]hScratch, e.threads)
	for i := range scratch {
		scratch[i].hbuf = make([]int64, 0, 256)
		scratch[i].bkts = make([]int64, 0, 256)
	}
	relax := func(v int32, tid int) (int64, bool) {
		nbrs := g.Neighbors(v)
		if cv := core[v]; hIndexAtLeast(nbrs, core, cv) {
			// h-index ≥ cv: the estimate cannot drop this round.
			return cv, false
		}
		s := &scratch[tid]
		s.hbuf = s.hbuf[:0]
		for _, u := range nbrs {
			s.hbuf = append(s.hbuf, core[u])
		}
		var h int64
		h, s.bkts = hIndex(s.hbuf, s.bkts)
		return h, h < core[v]
	}
	localMax := func() int64 {
		return par.MaxInt64(0, g.NLocal, e.threads, 0, func(v int) int64 { return core[v] })
	}
	// Piggyback the owned coreness maximum next to the convergence
	// counter (max-combined via TallyRound.Max): when the overlapped run
	// terminates through the counter, the estimates are final and the
	// folded frame already is the global maximum — no trailing
	// Allreduce. Runs cut short by maxIters (and sync runs) fall back.
	e.aux = localMax
	iters := e.propagate(core, relax, maxIters)
	maxCore := e.auxVal
	if !e.auxOK {
		maxCore = mpi.AllreduceScalar(g.Comm, localMax(), mpi.Max)
	}
	return core[:g.NLocal], Result{Name: "KC", Iterations: iters, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(maxCore)}
}

// hIndexAtLeast reports whether at least c of the neighbours nbrs
// hold a value vals[u] ≥ c — equivalently, whether the h-index of
// their values is ≥ c. It stops at the c-th witness.
//
//repro:hotpath
func hIndexAtLeast(nbrs []int32, vals []int64, c int64) bool {
	if c <= 0 {
		return true
	}
	var n int64
	for _, u := range nbrs {
		// Branch-free count: c-1-vals[u] is negative exactly when
		// vals[u] >= c (values are non-negative, c ≥ 1).
		n += int64(uint64(c-1-vals[u]) >> 63)
		if n >= c {
			return true
		}
	}
	return false
}

// hIndex returns the largest h such that at least h values in vals are
// >= h, counting into buckets — a caller-pooled scratch buffer, reused
// across calls so KCore's per-vertex-per-round hot loop stays off the
// heap — and returns the (possibly grown) buffer for the next call.
//
//repro:hotpath
func hIndex(vals []int64, buckets []int64) (int64, []int64) {
	n := int64(len(vals))
	if n == 0 {
		return 0, buckets
	}
	// Counting by bucket up to n (values above n count as n).
	if cap(buckets) < int(n)+1 {
		buckets = make([]int64, n+1)
	} else {
		buckets = buckets[:n+1]
		for i := range buckets {
			buckets[i] = 0
		}
	}
	for _, v := range vals {
		if v > n {
			v = n
		}
		if v < 0 {
			v = 0
		}
		buckets[v]++
	}
	var cum int64
	for h := n; h >= 0; h-- {
		cum += buckets[h]
		if cum >= h {
			return h, buckets
		}
	}
	return 0, buckets
}
