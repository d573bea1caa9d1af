package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		const n = 1000
		hits := make([]int32, n)
		For(0, n, threads, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, h)
			}
		}
	}
}

func TestForEmptyAndNegativeRange(t *testing.T) {
	called := false
	For(5, 5, 4, func(int) { called = true })
	For(9, 3, 4, func(int) { called = true })
	if called {
		t.Fatal("body called on empty range")
	}
}

func TestForNonZeroBegin(t *testing.T) {
	var sum atomic.Int64
	For(10, 20, 3, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 145 {
		t.Fatalf("sum over [10,20) = %d, want 145", got)
	}
}

func TestForChunkPartitionsRange(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8} {
		const n = 517
		hits := make([]int32, n)
		tids := make(map[int]bool)
		var mu atomic.Int32
		ForChunk(0, n, threads, func(lo, hi, tid int) {
			mu.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			_ = tids
			if tid < 0 || tid >= threads {
				t.Errorf("tid %d out of range [0,%d)", tid, threads)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, h)
			}
		}
	}
}

func TestReduceInt64(t *testing.T) {
	got := ReduceInt64(0, 1001, 4, func(i int) int64 { return int64(i) })
	if got != 500500 {
		t.Fatalf("ReduceInt64 = %d, want 500500", got)
	}
}

func TestMaxInt64(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	got := MaxInt64(0, len(vals), 3, -1, func(i int) int64 { return vals[i] })
	if got != 9 {
		t.Fatalf("MaxInt64 = %d, want 9", got)
	}
	if got := MaxInt64(0, 0, 3, -7, func(int) int64 { return 0 }); got != -7 {
		t.Fatalf("MaxInt64 on empty range = %d, want identity -7", got)
	}
}

func TestQueuesMerge(t *testing.T) {
	q := NewQueues[int](3)
	q.Push(0, 1)
	q.Push(1, 2)
	q.Push(2, 3)
	q.Push(0, 4)
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	got := q.MergeInto(nil)
	want := []int{1, 4, 2, 3} // lane 0 first, then lanes 1, 2
	if len(got) != len(want) {
		t.Fatalf("MergeInto returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeInto returned %v, want %v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatal("MergeInto did not reset lanes")
	}
}

func TestQueuesConcurrentLanes(t *testing.T) {
	const threads = 4
	const per = 1000
	q := NewQueues[int](threads)
	ForChunk(0, threads*per, threads, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			q.Push(tid, i)
		}
	})
	merged := q.MergeInto(nil)
	if len(merged) != threads*per {
		t.Fatalf("merged %d elements, want %d", len(merged), threads*per)
	}
	seen := make([]bool, threads*per)
	for _, v := range merged {
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestPrefixSums(t *testing.T) {
	got := PrefixSums([]int{3, 0, 2, 5})
	want := []int{0, 3, 3, 5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrefixSums = %v, want %v", got, want)
		}
	}
	if e := PrefixSums(nil); len(e) != 1 || e[0] != 0 {
		t.Fatalf("PrefixSums(nil) = %v, want [0]", e)
	}
}

// Property: parallel reduce agrees with a serial loop for arbitrary data.
func TestQuickReduceMatchesSerial(t *testing.T) {
	f := func(vals []int64, threadsRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		var serial int64
		for _, v := range vals {
			serial += v
		}
		got := ReduceInt64(0, len(vals), threads, func(i int) int64 { return vals[i] })
		return got == serial
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: prefix sums are monotone with correct total for non-negative
// counts.
func TestQuickPrefixSums(t *testing.T) {
	f := func(raw []uint16) bool {
		counts := make([]int, len(raw))
		total := 0
		for i, v := range raw {
			counts[i] = int(v)
			total += int(v)
		}
		ps := PrefixSums(counts)
		if len(ps) != len(counts)+1 || ps[0] != 0 || ps[len(counts)] != total {
			return false
		}
		for i := range counts {
			if ps[i+1]-ps[i] != counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Edge-case table shared by the reductions: empty and inverted ranges,
// and thread counts exceeding the element count.
func TestReductionEdgeCases(t *testing.T) {
	ranges := []struct {
		name       string
		begin, end int
		threads    int
	}{
		{"empty", 5, 5, 4},
		{"inverted", 9, 3, 4},
		{"threads-exceed-n", 0, 3, 16},
		{"threads-zero", 0, 3, 0},
		{"negative-threads", 0, 3, -2},
	}
	for _, tc := range ranges {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.end - tc.begin
			wantSum := int64(0)
			for i := tc.begin; i < tc.end; i++ {
				wantSum += int64(i)
			}
			if got := ReduceInt64(tc.begin, tc.end, tc.threads, func(i int) int64 { return int64(i) }); got != wantSum {
				t.Errorf("ReduceInt64 = %d, want %d", got, wantSum)
			}
			wantMax := int64(-100)
			for i := tc.begin; i < tc.end; i++ {
				if int64(i) > wantMax {
					wantMax = int64(i)
				}
			}
			if got := MaxInt64(tc.begin, tc.end, tc.threads, -100, func(i int) int64 { return int64(i) }); got != wantMax {
				t.Errorf("MaxInt64 = %d, want %d", got, wantMax)
			}
			wantMaxF := -100.0
			for i := tc.begin; i < tc.end; i++ {
				if float64(i) > wantMaxF {
					wantMaxF = float64(i)
				}
			}
			if got := MaxFloat64(tc.begin, tc.end, tc.threads, -100, func(i int) float64 { return float64(i) }); got != wantMaxF {
				t.Errorf("MaxFloat64 = %v, want %v", got, wantMaxF)
			}
			sum, _ := SumFloat64Ordered(tc.begin, tc.end, tc.threads, nil, func(lo, hi int) float64 {
				var s float64
				for i := lo; i < hi; i++ {
					s += float64(i)
				}
				return s
			})
			if n <= 0 && sum != 0 {
				t.Errorf("SumFloat64Ordered on empty range = %v, want 0", sum)
			}
			if n > 0 && sum != float64(wantSum) {
				t.Errorf("SumFloat64Ordered = %v, want %v", sum, float64(wantSum))
			}
		})
	}
}

// The load-bearing property of the ordered reduction: the fold is
// bit-identical across thread counts, because the chunk decomposition
// depends only on the range. Values are chosen so an unordered fold
// would visibly drift (mixed magnitudes make float addition
// non-associative).
func TestSumFloat64OrderedBitIdenticalAcrossThreads(t *testing.T) {
	const n = 3*floatFoldGrain + 17
	vals := make([]float64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = float64(int64(x%2000)-1000) * 1e-3
		if i%7 == 0 {
			vals[i] *= 1e12
		}
	}
	body := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	ref, scratch := SumFloat64Ordered(0, n, 1, nil, body)
	for _, threads := range []int{2, 4, 8} {
		var got float64
		got, scratch = SumFloat64Ordered(0, n, threads, scratch, body)
		if got != ref {
			t.Fatalf("threads=%d: sum %v differs from threads=1 sum %v", threads, got, ref)
		}
	}
}

// The pooled scratch must be reused, not reallocated, once grown.
func TestSumFloat64OrderedScratchReused(t *testing.T) {
	const n = 5 * floatFoldGrain
	body := func(lo, hi int) float64 { return float64(hi - lo) }
	_, scratch := SumFloat64Ordered(0, n, 1, nil, body)
	allocs := testing.AllocsPerRun(50, func() {
		_, scratch = SumFloat64Ordered(0, n, 1, scratch, body)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SumFloat64Ordered allocated %.1f times per run, want 0", allocs)
	}
}

// MergeInto with a pooled destination must be allocation-free in
// steady state (lanes and dst both keep their capacity).
func TestQueuesMergeIntoAllocFree(t *testing.T) {
	q := NewQueues[int64](4)
	var dst []int64
	fill := func() {
		for tid := 0; tid < 4; tid++ {
			for i := 0; i < 100; i++ {
				q.Push(tid, int64(tid*1000+i))
			}
		}
	}
	fill()
	dst = q.MergeInto(dst[:0])
	allocs := testing.AllocsPerRun(50, func() {
		fill()
		dst = q.MergeInto(dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeInto allocated %.1f times per run, want 0", allocs)
	}
	if len(dst) != 400 {
		t.Fatalf("merged %d records, want 400", len(dst))
	}
}

// Property: MergeInto emits lanes in thread-id order with
// push order preserved inside each lane, for arbitrary push schedules.
func TestQuickMergeTidOrderStable(t *testing.T) {
	f := func(raw []uint16, threadsRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		q := NewQueues[uint16](threads)
		perLane := make([][]uint16, threads)
		for i, v := range raw {
			tid := i % threads
			q.Push(tid, v)
			perLane[tid] = append(perLane[tid], v)
		}
		var want []uint16
		for _, l := range perLane {
			want = append(want, l...)
		}
		got := q.MergeInto(nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// Refill and merge again into the reused buffer: the lanes
		// were reset by the first merge and emit the same order.
		for i, v := range raw {
			q.Push(i%threads, v)
		}
		got2 := q.MergeInto(got[:0])
		if len(got2) != len(want) {
			return false
		}
		for i := range want {
			if got2[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResolveThreads(t *testing.T) {
	if got := ResolveThreads(0); got != DefaultThreads() {
		t.Fatalf("ResolveThreads(0) = %d, want DefaultThreads %d", got, DefaultThreads())
	}
	if got := ResolveThreads(-3); got != DefaultThreads() {
		t.Fatalf("ResolveThreads(-3) = %d, want DefaultThreads %d", got, DefaultThreads())
	}
	for _, n := range []int{1, 2, 16} {
		if got := ResolveThreads(n); got != n {
			t.Fatalf("ResolveThreads(%d) = %d", n, got)
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(0, 1024, 4, func(int) {})
	}
}
