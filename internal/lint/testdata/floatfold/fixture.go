// Package fixture reproduces the unordered-float-fold bug shapes for
// the floatfold analyzer: captured-accumulator folds inside par
// workers (the pre-PR-9 PageRank norm shape), arrival-order folds in
// receive loops, and direct calls bypassing a sync.Once-guarded
// initializer (the lazy-memoization race). Type-checked only.
package fixture

import (
	"sync"

	"repro/internal/mpi"
	"repro/internal/par"
)

// capturedSumInParFor is the canonical bug: the += on a captured
// variable races, and even a locked version folds in schedule order.
func capturedSumInParFor(vals []float64, threads int) float64 {
	var sum float64
	par.For(0, len(vals), threads, func(i int) {
		sum += vals[i] // want "float accumulation into captured sum inside a par.For worker"
	})
	return sum
}

// capturedSumInForChunk: the chunked variant of the same shape.
func capturedSumInForChunk(vals []float64, threads int) float64 {
	var total float64
	par.ForChunk(0, len(vals), threads, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			total = total + vals[i] // want "float accumulation into captured total"
		}
	})
	return total
}

// orderedSum is the repo's deterministic idiom: per-chunk partials
// folded in chunk order. Clean.
func orderedSum(vals []float64, threads int, partials []float64) float64 {
	sum, _ := par.SumFloat64Ordered(0, len(vals), threads, partials, func(lo, hi int) float64 {
		var local float64
		for i := lo; i < hi; i++ {
			local += vals[i]
		}
		return local
	})
	return sum
}

// localIntInWorker: integer accumulation into a worker-local is
// order-free and race-free. Clean.
func localIntInWorker(vals []int64, threads int) int64 {
	return par.ReduceInt64(0, len(vals), threads, func(i int) int64 {
		return vals[i]
	})
}

// arrivalOrderFold accumulates float contributions as they arrive:
// the socket substrate does not fix arrival order across ranks.
func arrivalOrderFold(c *mpi.Comm) float64 {
	var norm float64
	for src := 0; src < c.Size(); src++ {
		if src == c.Rank() {
			continue
		}
		data := mpi.Recv64(c, src)
		for _, d := range data {
			norm += float64(d) // want "float accumulation into norm inside a receive loop"
		}
	}
	return norm
}

// rankOrderFold buffers per-rank contributions and folds them in rank
// order after all receives complete. Clean.
func rankOrderFold(c *mpi.Comm) float64 {
	perRank := make([][]int64, c.Size())
	for src := 0; src < c.Size(); src++ {
		if src == c.Rank() {
			continue
		}
		perRank[src] = mpi.Recv64(c, src)
	}
	var norm float64
	for _, data := range perRank {
		for _, d := range data {
			norm += float64(d)
		}
	}
	return norm
}

// cache is a lazily-memoized structure guarded by a sync.Once.
type cache struct {
	once sync.Once
	mark []bool
}

func (c *cache) build() {
	c.mark = make([]bool, 64)
}

// Lookup enters the memoization through the Once: clean.
func (c *cache) Lookup(i int) bool {
	c.once.Do(c.build)
	return c.mark[i]
}

// LookupRacy re-adds the pre-PR-9 bug shape: a nil-check guard calls
// the initializer directly, racing with concurrent Lookup callers.
func (c *cache) LookupRacy(i int) bool {
	if c.mark == nil {
		c.build() // want "build is guarded by c.once.Do .* but called directly here"
	}
	return c.mark[i]
}

// slotOwnedAccumulation: hc[v] += x where v is the worker's own index
// writes a distinct slot per invocation — a scatter, not a fold.
// Clean (the HarmonicCentrality idiom).
func slotOwnedAccumulation(hc []float64, levels []int64, threads int) {
	par.For(0, len(hc), threads, func(v int) {
		if levels[v] > 0 {
			hc[v] += 1.0 / float64(levels[v])
		}
	})
}

// capturedProductInParFor folds a product into a captured variable
// across workers: the same race and schedule-ordered fold as a sum,
// since FP multiplication is no more associative than addition.
func capturedProductInParFor(vals []float64, threads int) float64 {
	prod := 1.0
	par.For(0, len(vals), threads, func(i int) {
		prod *= vals[i] // want "float accumulation into captured prod inside a par.For worker"
	})
	return prod
}

// ownSlotInForChunk: out[i] += v where i is the chunk loop's own index
// writes a distinct slot per iteration. Clean.
func ownSlotInForChunk(out, vals []float64, threads int) {
	par.ForChunk(0, len(vals), threads, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			out[i] += vals[i]
		}
	})
}
