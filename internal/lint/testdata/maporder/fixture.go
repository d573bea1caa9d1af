// Package fixture reproduces the map-iteration-order bug shapes for
// the maporder analyzer: wire frames emitted under map iteration,
// float folds in map order, order-dependent sequences reaching sinks
// unsorted, and rank-local map counts in report fields (the PR 5
// LabelProp community-count bug). Type-checked only, never run.
package fixture

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/wire"
)

// Report is a results container in the analyzer's sense.
type Report struct {
	Communities int64
	Labels      []int64
}

// frameUnderMapRange: every process frames its map in a different
// order, so the wire bytes diverge.
func frameUnderMapRange(dst []byte, pending map[int32][]int64) []byte {
	for gid, vals := range pending {
		dst = wire.AppendFrame(dst, 1, uint32(gid), vals) // want "AppendFrame inside range over a map"
	}
	return dst
}

// sendUnderMapRange: same shape through a point-to-point send.
func sendUnderMapRange(c *mpi.Comm, out map[int]bool) {
	for dst := range out {
		mpi.Isend64(c, dst, []int64{1}) // want "Isend64 inside range over a map"
	}
}

// frameViaHelper hides the sink one call down; the interprocedural
// layer still sees it.
func frameViaHelper(dst []byte, pending map[int32][]int64) []byte {
	for gid, vals := range pending {
		dst = emit(dst, gid, vals) // want "call to emit, which emits wire frames"
	}
	return dst
}

func emit(dst []byte, gid int32, vals []int64) []byte {
	return wire.AppendFrame(dst, 1, uint32(gid), vals)
}

// floatFoldInMapOrder: FP addition is not associative; folding in map
// order gives different bits every run.
func floatFoldInMapOrder(weights map[int64]float64) float64 {
	var sum float64
	for _, w := range weights {
		sum += w // want "float accumulation in map iteration order"
	}
	return sum
}

// intFoldInMapOrder is fine: integer addition is associative and
// commutative, order cannot matter.
func intFoldInMapOrder(counts map[int64]int64) int64 {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	return sum
}

// appendThenReturn builds a sequence in map order and hands it to the
// caller unsorted.
func appendThenReturn(labels map[int64]bool) []int64 {
	var out []int64
	for l := range labels {
		out = append(out, l)
	}
	return out // want "built in map iteration order and is returned unsorted"
}

// appendThenSort re-establishes a deterministic order first: clean.
func appendThenSort(labels map[int64]bool) []int64 {
	var out []int64
	for l := range labels {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cursorStoreToCollective fills a payload through an advancing cursor
// under map iteration — same order dependence as append — and hands
// it to a collective.
func cursorStoreToCollective(c *mpi.Comm, labels map[int64]bool) {
	buf := make([]int64, len(labels))
	i := 0
	for l := range labels {
		buf[i] = l
		i++
	}
	mpi.Allreduce(c, buf, mpi.Min) // want "built in map iteration order and reaches Allreduce"
}

// gidIndexedStore scatters each entry into the slot its key owns: the
// result is identical whatever order the map iterates in. Clean.
func gidIndexedStore(dst []int64, updates map[int32]int64) {
	for gid, v := range updates {
		dst[gid] = v
	}
}

// rankLocalCountInReport is the PR 5 LabelProp bug: each rank's map
// holds only the labels it saw locally, so the ranks disagree on the
// count.
func rankLocalCountInReport(labels []int64) Report {
	distinct := make(map[int64]struct{}, 64)
	for _, l := range labels {
		distinct[l] = struct{}{}
	}
	return Report{
		Communities: int64(len(distinct)), // want "rank-local map count flows into report field"
	}
}

// reducedCountInReport launders the count through a collective before
// reporting it — the fixed idiom. Clean.
func reducedCountInReport(c *mpi.Comm, labels []int64) Report {
	distinct := make(map[int64]struct{}, 64)
	for _, l := range labels {
		distinct[l] = struct{}{}
	}
	total := mpi.AllreduceScalar(c, int64(len(distinct)), mpi.Sum)
	return Report{Communities: total}
}

// countViaLocalToField: the count travels through a local and a field
// assignment; still caught.
func countViaLocalToField(labels []int64) *Report {
	distinct := make(map[int64]struct{})
	for _, l := range labels {
		distinct[l] = struct{}{}
	}
	n := len(distinct)
	r := &Report{}
	r.Communities = int64(n) // want "rank-local map count flows into report field"
	return r
}

// productInMapOrder: FP multiplication is no more associative than
// addition, so a product folded in map order differs run to run too.
func productInMapOrder(weights map[int64]float64) float64 {
	p := 1.0
	for _, w := range weights {
		p *= w // want "float accumulation in map iteration order"
	}
	return p
}

// differenceInMapOrder: a running difference folds in map order.
func differenceInMapOrder(weights map[int64]float64) float64 {
	var s float64
	for _, w := range weights {
		s -= w // want "float accumulation in map iteration order.*deterministic order \\(sort the keys, or par.SumFloat64Ordered"
	}
	return s
}

// spelledDifferenceInMapOrder is the same fold as differenceInMapOrder
// spelled s = s - w: the spelling does not change the order the
// differences fold in, nor the diagnostic's text.
func spelledDifferenceInMapOrder(weights map[int64]float64) float64 {
	var s float64
	for _, w := range weights {
		s = s - w // want "float accumulation in map iteration order.*deterministic order \\(sort the keys, or par.SumFloat64Ordered"
	}
	return s
}

// keyIndexedAccumulation adds each entry into the slot its own key
// indexes: every key is visited once, so each slot takes exactly one
// addition whatever the order. Clean.
func keyIndexedAccumulation(acc []float64, weights map[int]float64) {
	for k, w := range weights {
		acc[k] += w
	}
}
