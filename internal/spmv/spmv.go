// Package spmv implements distributed sparse matrix–vector
// multiplication over graph adjacency matrices, reproducing the
// paper's Table III experiment: SpMV time under one-dimensional row
// layouts derived from any vertex partition, and two-dimensional
// layouts including the Boman–Devine–Rajamanickam mapping of a 1D
// partition onto a processor grid [6].
//
// The matrix is the (symmetric) adjacency matrix with unit values. One
// multiply performs the classic expand → local multiply → fold
// sequence: vector owners send needed x entries to the ranks holding
// matrix nonzeros in their columns, each rank multiplies its local
// nonzeros, and partial row sums are folded back to the row's vector
// owner. Under a 1D layout the fold is rank-local; under 2D both
// phases touch only a processor row/column, which is what accelerates
// skewed graphs in Table III.
//
// Both phases send nonblocking point-to-point messages of float64 bits
// over the precomputed per-peer schedules, with a local-copy bypass for
// self-destined shares. Normalization is deferred by one iteration:
// each expand ships the previous product unnormalized and receivers
// fill their x buffers, then divide them in place by the global
// ∞-norm. The mode (Options.Async) decides only where that divisor
// comes from — riding the expand messages, or one Allreduce per
// expand — so the numerics are identical in both modes.
package spmv

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Layout selects the nonzero-to-rank mapping.
type Layout int

// Layouts.
const (
	// OneD assigns all nonzeros of row u to the rank owning vector
	// entry u.
	OneD Layout = iota
	// TwoD assigns nonzero (u, v) to the processor-grid rank combining
	// the row group of owner(u) with the column group of owner(v).
	TwoD
)

// String names the layout.
func (l Layout) String() string {
	if l == TwoD {
		return "2D"
	}
	return "1D"
}

// Options configures a run.
type Options struct {
	// Layout selects 1D or 2D nonzero placement.
	Layout Layout
	// Iterations is the number of chained multiplies (paper: 100).
	Iterations int
	// Async decides only where each expand's deferred-normalization
	// divisor comes from; both modes run the same point-to-point
	// multiply. Sync reduces the global ∞-norm with one
	// AllreduceScalar per expand (none on the first, whose divisor is
	// 1 on every rank). Async rides each rank's local norm
	// contribution on its expand messages when the expand schedule's
	// rank neighborhood is complete (detected collectively once per
	// run): receivers fold the global max, exact in any order, so
	// iterations perform zero AllreduceScalar. On incomplete
	// neighborhoods async falls back to sync's per-expand Allreduce;
	// 2D layouts confine each rank's expand traffic to its processor
	// column, so they always take the fallback. Checksums are
	// bit-identical in both modes.
	Async bool
}

// Result reports one SpMV experiment.
type Result struct {
	// Time is the wall clock for all iterations on this rank.
	Time time.Duration
	// CommVolume is the total number of vector/partial values this rank
	// sent to other ranks across all iterations, equal in both modes.
	// Self-destined shares are local copies and are not counted, and
	// neither is the ridden norm element (framing, not a vector value).
	CommVolume int64
	// Checksum is the global ∞-norm the last iteration divides by,
	// ‖A·x_{k−1}‖∞ (0 when that product is zero), identical on every
	// rank. It is bit-identical across modes, thread counts and
	// substrates under one layout; 1D and 2D fold partial sums in
	// different orders, so across layouts it agrees only to rounding.
	Checksum float64
	// MultiplyTime is the wall clock this rank spent inside the local
	// row-sum kernel (localMultiply) across all iterations — the
	// compute the ThreadsPerRank knob parallelizes, excluding all
	// communication.
	MultiplyTime time.Duration
	// Reductions is the number of Allreduce operations this rank
	// performed during Run: iterations in sync mode (one norm per
	// expand after the first, plus the trailing settle); 2 in async
	// mode on complete rank neighborhoods (completeness detection and
	// the trailing settle, independent of the iteration count); and
	// iterations+1 for the async fallback (sync's plus the detection).
	Reductions int64
	// NormPiggyback reports whether async mode rode the per-iteration
	// ∞-norm on the expand messages (complete rank neighborhood
	// detected).
	NormPiggyback bool
}

// matrix is one rank's prepared SpMV state.
type matrix struct {
	c  *mpi.Comm
	p  int
	me int
	pr int // processor grid rows (1 for 1D)

	// Intra-rank parallel sweep state: worker count (Comm.Threads()),
	// the stored chunk bodies par.ForChunk fans out (bound once in
	// build, so the hot loops allocate no closures), the per-sweep
	// inputs those bodies read, and the accumulated kernel time. Every
	// parallel loop writes disjoint indices from phase-frozen inputs,
	// so results are bit-identical at every thread count.
	threads    int
	mulBody    func(lo, hi, tid int)
	foldBody   func(lo, hi, tid int)
	selfBody   func(lo, hi, tid int)
	divBody    func(lo, hi, tid int)
	foldDstIdx []int
	foldSeg    []float64 // decoded fold segment, sized once in build
	divSeg     []float64
	divNorm    float64
	mulTime    time.Duration

	// Owned vector entries, sorted by gid.
	vecGIDs []int64
	x       []float64

	// Local nonzeros in CSR over present rows; columns are local
	// x-buffer indices.
	rowGIDs []int64
	rowPtr  []int64
	colIdx  []int32

	// Distinct column gids needed (sorted), aligned with xbuf.
	colGIDs []int64
	xbuf    []float64

	// Expand schedule: for each dst, the owned vector positions to send
	// (indices into x). Each source's values fill one contiguous xbuf
	// segment because colGIDs is sorted (owner rank, gid).
	expandSend [][]int

	// Fold schedule (2D): per dst, positions into rowGIDs to send; and
	// per src, the owned vector indices the incoming partials add into.
	foldSend [][]int
	foldRecv [][]int

	// xbuf segment offsets per source rank, and the remote peers each
	// phase actually touches.
	colOff    []int
	expandOut []int
	expandIn  []int
	foldOut   []int

	// Deferred-normalization state: pendNorm is this rank's local
	// ∞-norm contribution — max |y| of the previous multiply, 1.0
	// before the first (dividing by it must be exact, and x/1.0 is);
	// normPiggyback rides it on the expand messages (async mode,
	// complete expand neighborhood) instead of reducing it.
	normPiggyback bool
	pendNorm      float64

	// y accumulators.
	partial []float64 // per present row
	y       []float64 // per owned vector entry

	// Reusable per-peer send staging buffer of float64 bits. The
	// schedules are fixed after build, so one warmup multiply sizes it
	// and steady-state iterations stop allocating in the send paths.
	peerBuf []int64
}

// nzRank maps nonzero (u, v) to its rank for the given layout.
func nzRank(layout Layout, parts []int32, pr, pc int, u, v int64) int {
	ou, ov := int(parts[u]), int(parts[v])
	if layout == OneD {
		return ou
	}
	return ou%pr + pr*(ov%pc)
}

// gridDims factors p into pr × pc with pr as close to √p as possible.
func gridDims(p int) (pr, pc int) {
	pr = int(math.Sqrt(float64(p)))
	for pr > 1 && p%pr != 0 {
		pr--
	}
	if pr < 1 {
		pr = 1
	}
	return pr, p / pr
}

// rowHere reports whether row u can hold nonzeros on rank me: only on
// its owner under 1D, on any rank of the owner's processor row under 2D.
func rowHere(layout Layout, parts []int32, pr, me int, u int64) bool {
	if layout == OneD {
		return int(parts[u]) == me
	}
	return int(parts[u])%pr == me%pr
}

// build prepares the rank-local SpMV state. Every rank passes the same
// shared graph and global partition (simulation convenience). Run
// starts Result.Time after build returns, matching the paper, which
// times only the 100 SpMV operations; a caller timing the whole Run
// call (the benchmark's spmv_s) includes this set-up.
//
// Every schedule comes out of gid-ascending linear passes, so each
// index list is born in gid order; only one row's column segment is
// ever sorted, and no maps are built.
func build(c *mpi.Comm, g *graph.Graph, parts []int32, layout Layout) (*matrix, error) {
	p := c.Size()
	me := c.Rank()
	for v := int64(0); v < g.N; v++ {
		if int(parts[v]) >= p || parts[v] < 0 {
			return nil, fmt.Errorf("spmv: vertex %d part %d outside [0,%d)", v, parts[v], p)
		}
	}
	pr, pc := 1, p
	if layout == TwoD {
		pr, pc = gridDims(p)
	}
	m := &matrix{c: c, p: p, me: me, pr: pr, threads: c.Threads()}
	if m.threads < 1 {
		m.threads = 1
	}
	m.mulBody = m.mulChunk
	m.foldBody = m.foldAddChunk
	m.selfBody = m.foldSelfChunk
	m.divBody = m.divChunk

	// Owned vector entries.
	for v := int64(0); v < g.N; v++ {
		if int(parts[v]) == me {
			m.vecGIDs = append(m.vecGIDs, v)
		}
	}
	m.x = make([]float64, len(m.vecGIDs))
	m.y = make([]float64, len(m.vecGIDs))
	for i := range m.x {
		m.x[i] = 1.0 / float64(g.N)
	}

	// Local nonzeros: arcs (u -> v) with nzRank == me, as CSR over the
	// rows that have any. Adjacency is unsorted and keeps duplicate
	// arcs, so each row's column segment is sorted in place and
	// duplicates stay duplicate nonzeros. cols holds column gids until
	// the slots are known, sized by the candidate rows' degree sum
	// (exact under 1D); col marks each distinct column with 1.
	var arcs int64
	for u := int64(0); u < g.N; u++ {
		if rowHere(layout, parts, pr, me, u) {
			arcs += g.Degree(u)
		}
	}
	cols := make([]int64, 0, arcs)
	col := make([]int32, g.N)
	for u := int64(0); u < g.N; u++ {
		if !rowHere(layout, parts, pr, me, u) {
			continue
		}
		start := len(cols)
		for _, v := range g.Neighbors(u) {
			if nzRank(layout, parts, pr, pc, u, v) == me {
				cols = append(cols, v)
				col[v] = 1
			}
		}
		if len(cols) > start {
			slices.Sort(cols[start:])
			m.rowGIDs = append(m.rowGIDs, u)
			m.rowPtr = append(m.rowPtr, int64(start))
		}
	}
	m.rowPtr = append(m.rowPtr, int64(len(cols)))

	// xbuf is filled src-major, then by gid, so colGIDs is ordered
	// (owner rank, gid): a counting sort by owner over an ascending gid
	// scan. colOff is its per-owner prefix index. The placement scan
	// overwrites each marked col[v] with v's slot; it visits every v
	// once, so a slot of 0 never reads as "unmarked".
	m.colOff = make([]int, p+1)
	for v, mark := range col {
		if mark != 0 {
			m.colOff[parts[v]+1]++
		}
	}
	for r := 0; r < p; r++ {
		m.colOff[r+1] += m.colOff[r]
	}
	next := slices.Clone(m.colOff[:p])
	m.colGIDs = make([]int64, m.colOff[p])
	for v, mark := range col {
		if mark != 0 {
			s := next[parts[v]]
			next[parts[v]]++
			m.colGIDs[s] = int64(v)
			col[v] = int32(s)
		}
	}
	m.colIdx = make([]int32, len(cols))
	for e, v := range cols {
		m.colIdx[e] = col[v]
	}
	m.xbuf = make([]float64, len(m.colGIDs))
	m.partial = make([]float64, len(m.rowGIDs))

	// Expand and fold-receive schedules, from the symmetric adjacency of
	// each owned entry w: arc (u, w) puts column w on nzRank(u, w),
	// which needs x[w]; arc (w, u) puts a row-w nonzero on nzRank(w, u),
	// which folds one partial into y[w]. Vector indices ascend, so each
	// list is in gid order — the order the sender ships (and the
	// receiver's rowGIDs) — and a per-rank stamp of 1 + the last index
	// appended drops repeats.
	m.expandSend = make([][]int, p)
	m.foldRecv = make([][]int, p)
	sent := make([]int, p)
	recvd := make([]int, p)
	for i, w := range m.vecGIDs {
		for _, u := range g.Neighbors(w) {
			if d := nzRank(layout, parts, pr, pc, u, w); sent[d] <= i {
				sent[d] = i + 1
				m.expandSend[d] = append(m.expandSend[d], i)
			}
			if s := nzRank(layout, parts, pr, pc, w, u); recvd[s] <= i {
				recvd[s] = i + 1
				m.foldRecv[s] = append(m.foldRecv[s], i)
			}
		}
	}

	// Fold send schedule: my present rows grouped by the row's vector
	// owner.
	m.foldSend = make([][]int, p)
	for ri, u := range m.rowGIDs {
		m.foldSend[parts[u]] = append(m.foldSend[parts[u]], ri)
	}

	maxFold := 0
	for d := 0; d < p; d++ {
		if d == me {
			continue
		}
		if len(m.expandSend[d]) > 0 {
			m.expandOut = append(m.expandOut, d)
		}
		if m.colOff[d+1] > m.colOff[d] {
			m.expandIn = append(m.expandIn, d)
		}
		if len(m.foldSend[d]) > 0 {
			m.foldOut = append(m.foldOut, d)
		}
		maxFold = max(maxFold, len(m.foldRecv[d]))
	}
	m.foldSeg = make([]float64, maxFold)
	return m, nil
}

// multiply performs one distributed SpMV on the deferred-normalized
// vector, y = A·(x / norm), leaving y in m.y. norm is the global max of
// every rank's pendNorm: reduced by one Allreduce when reduce is set,
// folded from the expand messages under the norm ride, and taken as
// is otherwise (before the first multiply every rank's pendNorm is 1).
// It returns the number of vector/partial values this rank sent to
// other ranks.
//
// Both phases send one point-to-point message per scheduled remote
// peer and copy the self share locally. Values travel as their
// float64 bits through the pooled Isend64/Recv64 path, and each
// received buffer is decoded and recycled at once. Fill and
// accumulation orders are fixed (xbuf segments are source-major, y
// adds run in ascending source rank with the self share at its rank
// position), and every entry is divided by the same global max however
// it was obtained (max never rounds), so the iterated vector — and
// Result.Checksum — is bit-identical in both modes.
//
//repro:hotpath
func (m *matrix) multiply(reduce bool) int64 {
	var volume int64

	// Expand: the remote sends first (Isend64 is eager and never
	// blocks, and copies at call time, so one staging buffer serves
	// every peer), then the divisor, then the receives. Entries travel
	// unnormalized and are decoded into their xbuf segments; under the
	// ride each message appends the sender's norm contribution. The
	// segments are divided in place once the divisor is total.
	for _, d := range m.expandOut {
		buf := m.peerBuf[:0]
		for _, xi := range m.expandSend[d] {
			buf = append(buf, int64(math.Float64bits(m.x[xi])))
		}
		volume += int64(len(buf))
		if m.normPiggyback {
			buf = append(buf, int64(math.Float64bits(m.pendNorm)))
		}
		m.peerBuf = buf
		mpi.Isend64(m.c, d, buf)
	}
	norm := m.pendNorm
	if reduce {
		norm = mpi.AllreduceScalar(m.c, norm, mpi.Max)
	}
	for _, s := range m.expandIn {
		words := mpi.Recv64(m.c, s)
		seg := m.xbuf[m.colOff[s]:m.colOff[s+1]]
		for j := range seg {
			seg[j] = math.Float64frombits(uint64(words[j]))
		}
		if m.normPiggyback {
			if n := math.Float64frombits(uint64(words[len(seg)])); n > norm {
				norm = n
			}
		}
		m.c.Recycle64(words)
	}
	if norm == 0 {
		norm = 1 // a zero product leaves x unscaled
	}
	for i, xi := range m.expandSend[m.me] {
		m.xbuf[m.colOff[m.me]+i] = m.x[xi] / norm
	}
	m.divNorm = norm
	for _, s := range m.expandIn {
		m.divSeg = m.xbuf[m.colOff[s]:m.colOff[s+1]]
		par.ForChunk(0, len(m.divSeg), m.threads, m.divBody)
	}

	m.localMultiply()

	// Fold: ship partial row sums to remote vector owners; under a 1D
	// layout every row is owner-local and this loop sends nothing.
	for _, d := range m.foldOut {
		buf := m.peerBuf[:0]
		for _, ri := range m.foldSend[d] {
			buf = append(buf, int64(math.Float64bits(m.partial[ri])))
		}
		m.peerBuf = buf
		mpi.Isend64(m.c, d, buf)
		volume += int64(len(buf))
	}
	clear(m.y)
	for s := 0; s < m.p; s++ {
		if s == m.me {
			par.ForChunk(0, len(m.foldSend[s]), m.threads, m.selfBody)
			continue
		}
		if len(m.foldRecv[s]) == 0 {
			continue
		}
		words := mpi.Recv64(m.c, s)
		for j, w := range words {
			m.foldSeg[j] = math.Float64frombits(uint64(w))
		}
		m.c.Recycle64(words)
		m.foldDstIdx = m.foldRecv[s]
		par.ForChunk(0, len(m.foldRecv[s]), m.threads, m.foldBody)
	}
	return volume
}

// localMultiply computes the partial row sums from the filled x
// buffer. Rows fan out across the rank's worker threads; each row's
// inner sum stays a serial ascending accumulation and each row writes
// its own partial slot, so the partials are bit-identical at every
// thread count.
//
//repro:hotpath
//repro:timing
func (m *matrix) localMultiply() {
	start := time.Now()
	par.ForChunk(0, len(m.rowGIDs), m.threads, m.mulBody)
	m.mulTime += time.Since(start)
}

// mulChunk is localMultiply's per-thread body: the CSR row loop over
// one contiguous row chunk.
//
//repro:hotpath
func (m *matrix) mulChunk(lo, hi, _ int) {
	for ri := lo; ri < hi; ri++ {
		var sum float64
		for e := m.rowPtr[ri]; e < m.rowPtr[ri+1]; e++ {
			sum += m.xbuf[m.colIdx[e]]
		}
		m.partial[ri] = sum
	}
}

// foldAddChunk accumulates one source's received fold segment:
// y[foldDstIdx[j]] += foldSeg[j]. Within a source the destination
// indices are distinct, so the adds are disjoint; sources are folded
// serially in ascending rank order by multiply, which is what keeps
// each y element's float accumulation order fixed.
//
//repro:hotpath
func (m *matrix) foldAddChunk(lo, hi, _ int) {
	dst, seg := m.foldDstIdx, m.foldSeg
	for j := lo; j < hi; j++ {
		m.y[dst[j]] += seg[j]
	}
}

// foldSelfChunk is foldAddChunk for the self share: partials indexed
// through the send schedule instead of a received segment.
//
//repro:hotpath
func (m *matrix) foldSelfChunk(lo, hi, _ int) {
	send, recv := m.foldSend[m.me], m.foldRecv[m.me]
	for j := lo; j < hi; j++ {
		m.y[recv[j]] += m.partial[send[j]]
	}
}

// divChunk performs the deferred normalization in place on one
// received xbuf segment: divSeg[j] /= divNorm, disjoint per index.
//
//repro:hotpath
func (m *matrix) divChunk(lo, hi, _ int) {
	seg, norm := m.divSeg, m.divNorm
	for j := lo; j < hi; j++ {
		seg[j] /= norm
	}
}

// prepare builds the rank's matrix and sets up its deferred
// normalization for the first multiply. Under opt.Async it runs the
// one-time collective detection of the norm ride, which needs every
// rank to hear every other rank's contribution on each expand, i.e. a
// complete expand rank neighborhood on EVERY rank.
func prepare(c *mpi.Comm, g *graph.Graph, parts []int32, opt Options) (*matrix, error) {
	m, err := build(c, g, parts, opt.Layout)
	if err != nil {
		return nil, err
	}
	if opt.Async {
		m.normPiggyback = mpi.NeighborhoodComplete(c, len(m.expandIn))
	}
	m.pendNorm = 1
	return m, nil
}

// Run executes opt.Iterations chained multiplies (x ← A x / ‖A x‖∞)
// and reports timing, traffic, and the final norm as a checksum.
//
//repro:deterministic
func Run(c *mpi.Comm, g *graph.Graph, parts []int32, opt Options) (Result, error) {
	res, _, err := run(c, g, parts, opt)
	return res, err
}

// run is Run that also returns the rank's matrix, whose x holds this
// rank's share of the iterated vector.
//
//repro:timing
func run(c *mpi.Comm, g *graph.Graph, parts []int32, opt Options) (Result, *matrix, error) {
	if opt.Iterations <= 0 {
		opt.Iterations = 100
	}
	redBase := c.Stats().ReductionOps
	m, err := prepare(c, g, parts, opt)
	if err != nil {
		return Result{}, nil, err
	}
	var res Result
	start := time.Now()
	for it := 0; it < opt.Iterations; it++ {
		res.CommVolume += m.multiply(it > 0 && !m.normPiggyback)
		// Power iteration on the adjacency matrix, normalized by the
		// global ∞-norm one iteration late: y becomes the next x
		// unnormalized, and its local norm contribution the next
		// expand's divisor. Max is order-independent, so the parallel
		// reduction is exact.
		m.pendNorm = par.MaxFloat64(0, len(m.y), m.threads, 0,
			func(i int) float64 { return math.Abs(m.y[i]) })
		m.x, m.y = m.y, m.x
	}
	// Settle the last iteration's deferred normalization: the one
	// reduction left after the loop in both modes.
	norm := mpi.AllreduceScalar(c, m.pendNorm, mpi.Max)
	res.Checksum = norm
	if norm == 0 {
		norm = 1
	}
	par.For(0, len(m.x), m.threads, func(i int) { m.x[i] /= norm })
	res.Time = time.Since(start)
	res.Reductions = c.Stats().ReductionOps - redBase
	res.NormPiggyback = m.normPiggyback
	res.MultiplyTime = m.mulTime
	return res, m, nil
}
