// Package mpitest is the transport conformance suite: a reusable set
// of tests every mpi.Transport implementation must pass, exercised
// in-tree against both the in-process goroutine transport and the
// socket transport (over Unix sockets, plus a multi-process re-exec
// test). The suite pins down the contract documented on mpi.Transport —
// per-pair FIFO delivery, tag-skew detection, poison-on-panic release
// of blocked peers, piggybacked tally folds matching explicit
// Allreduces, ascending-rank-order reductions bit-identical across
// transports, and end-to-end engine determinism (async == sync, every
// transport == the in-process reference).
package mpitest

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/mpi"
)

// Factory builds a fresh n-rank world of the transport under test.
// Implementations register cleanup on tb; each conformance subtest
// calls the factory once and runs the world to completion.
type Factory func(tb testing.TB, n int) []mpi.Transport

// ProcFactory builds the in-process reference world.
func ProcFactory(tb testing.TB, n int) []mpi.Transport {
	return mpi.NewProcWorld(n)
}

// UnixSocketFactory builds a socket world over Unix domain sockets in
// a per-test temporary directory, all ranks living in the calling test
// process. It exercises the full wire path — frame codec, reader and
// writer goroutines, rendezvous handshake — without spawning
// processes.
func UnixSocketFactory(tb testing.TB, n int) []mpi.Transport {
	dir := tb.TempDir()
	addrs := make([]string, n)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
	}
	ts, err := mpi.NewSocketWorld("unix", addrs, 30*time.Second)
	if err != nil {
		tb.Fatalf("socket world: %v", err)
	}
	tb.Cleanup(func() {
		for _, t := range ts {
			t.Close()
		}
	})
	return ts
}

// CrossThreadCounts returns the intra-rank thread counts the
// cross-thread determinism matrices sweep: {1, 2, 4, 8} normally,
// {1, 4} under -short, and {1, n} when REPRO_TEST_THREADS=n pins an
// explicit budget (CI's ThreadsPerRank=4 race leg). The serial count
// is always included — it is the reference every other count must
// reproduce bit for bit.
func CrossThreadCounts(short bool) []int {
	if env, err := strconv.Atoi(os.Getenv("REPRO_TEST_THREADS")); err == nil && env > 0 {
		return []int{1, env}
	}
	if short {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// Option configures RunTransportConformance.
type Option func(*confOptions)

type confOptions struct {
	chaos bool
}

// WithChaos enables the chaos tier: wire-level fault injection through
// ChaosProxy (resets, truncation, stalls, kills) plus the watchdog and
// Close-hardening checks. The tier builds socket worlds directly —
// the faults live below the Transport interface — so pass it only from
// the socket transport's conformance test.
func WithChaos() Option {
	return func(o *confOptions) { o.chaos = true }
}

// RunTransportConformance runs the full conformance suite against the
// transport the factory builds. Every subtest constructs its own
// world, so a failure in one cannot corrupt another.
func RunTransportConformance(t *testing.T, factory Factory, opts ...Option) {
	var o confOptions
	for _, opt := range opts {
		opt(&o)
	}
	t.Run("P2PFIFO", func(t *testing.T) { testP2PFIFO(t, factory) })
	t.Run("TagSkewPanics", func(t *testing.T) { testTagSkew(t, factory) })
	t.Run("PoisonOnPanic", func(t *testing.T) { testPoisonOnPanic(t, factory) })
	t.Run("Collectives", func(t *testing.T) { testCollectives(t, factory) })
	t.Run("FloatFoldBits", func(t *testing.T) { testFloatFoldBits(t, factory) })
	t.Run("FloatBitsP2P", func(t *testing.T) { testFloatBitsP2P(t, factory) })
	t.Run("Barrier", func(t *testing.T) { testBarrier(t, factory) })
	t.Run("TallyFold", func(t *testing.T) { testTallyFold(t, factory) })
	t.Run("RecycleStability", func(t *testing.T) { testRecycleStability(t, factory) })
	t.Run("EngineDeterminism", func(t *testing.T) { testEngineDeterminism(t, factory) })
	if o.chaos {
		t.Run("Chaos", runChaosTier)
	}
}

// testP2PFIFO checks strict per-pair FIFO delivery with tags, payload
// integrity, and self-sends.
func testP2PFIFO(t *testing.T, factory Factory) {
	const n, rounds = 3, 16
	mpi.RunWorld(factory(t, n), 1, func(c *mpi.Comm) {
		for seq := uint32(0); seq < rounds; seq++ {
			tag := mpi.RoundTag(0, seq)
			for dst := 0; dst < n; dst++ {
				payload := []int64{int64(c.Rank()), int64(dst), int64(seq)}
				mpi.Isend64Tag(c, dst, tag, payload)
			}
		}
		for src := 0; src < n; src++ {
			for seq := uint32(0); seq < rounds; seq++ {
				got := mpi.Recv64Tag(c, src, mpi.RoundTag(0, seq))
				want := []int64{int64(src), int64(c.Rank()), int64(seq)}
				for i := range want {
					if got[i] != want[i] {
						panic(fmt.Sprintf("rank %d: message %d from %d: got %v want %v", c.Rank(), seq, src, got, want))
					}
				}
				c.Recycle64(got)
			}
		}
	})
}

// testTagSkew checks that a receiver expecting a different round tag
// panics with the skew diagnostic instead of consuming the frame.
func testTagSkew(t *testing.T, factory Factory) {
	defer wantPanic(t, "pipelined rounds skewed")()
	mpi.RunWorld(factory(t, 2), 1, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			mpi.Isend64Tag(c, 1, mpi.RoundTag(0, 3), []int64{1})
		} else {
			mpi.Recv64Tag(c, 0, mpi.RoundTag(0, 4))
		}
	})
}

// testPoisonOnPanic checks that one rank's panic releases peers
// blocked in a receive and in a collective, and that RunWorld
// re-raises the original panic, not a secondary poison.
func testPoisonOnPanic(t *testing.T, factory Factory) {
	defer wantPanic(t, "boom: original failure")()
	mpi.RunWorld(factory(t, 3), 1, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			mpi.Recv64(c, 1) // blocks: rank 1 never sends
		case 1:
			panic("boom: original failure")
		case 2:
			c.Barrier() //lint:ignore collectivesym deliberate asymmetry: rank 1 panics by design and the poison must release this blocked collective
		}
	})
}

// testCollectives checks every typed collective against locally
// computed references.
func testCollectives(t *testing.T, factory Factory) {
	const n = 4
	mpi.RunWorld(factory(t, n), 1, func(c *mpi.Comm) {
		me := int64(c.Rank())

		// Allreduce int64, all ops.
		vals := []int64{me + 1, -me, 100 * me}
		for _, op := range []mpi.Op{mpi.Sum, mpi.Max, mpi.Min} {
			got := mpi.Allreduce(c, vals, op)
			want := make([]int64, len(vals))
			for i := range want {
				want[i] = refFold1(op, func(r int64) int64 { return [3]int64{r + 1, -r, 100 * r}[i] }, n)
			}
			assertEq64(c, "Allreduce", got, want)
		}
		if got := mpi.AllreduceScalar(c, me+1, mpi.Sum); got != int64(n*(n+1)/2) {
			panic(fmt.Sprintf("AllreduceScalar = %d", got))
		}

		// Bcast from a non-zero root.
		b := mpi.Bcast(c, 2, []int64{7 * me, 7*me + 1})
		assertEq64(c, "Bcast", b, []int64{14, 15})

		// Allgatherv with rank-dependent lengths (rank r contributes r+1
		// elements, value 10r+i).
		mine := make([]int64, c.Rank()+1)
		for i := range mine {
			mine[i] = 10*me + int64(i)
		}
		all := mpi.Allgatherv(c, mine)
		for r := 0; r < n; r++ {
			want := make([]int64, r+1)
			for i := range want {
				want[i] = int64(10*r + i)
			}
			assertEq64(c, "Allgatherv", all[r], want)
		}

		// Allgather of scalars.
		g := mpi.Allgather(c, me*me)
		assertEq64(c, "Allgather", g, []int64{0, 1, 4, 9})

		// Alltoallv: rank r sends d+1 elements of value 100r+d to rank d.
		counts := make([]int, n)
		var send []int64
		for d := 0; d < n; d++ {
			counts[d] = d + 1
			for i := 0; i < d+1; i++ {
				send = append(send, 100*me+int64(d))
			}
		}
		recv, rc := mpi.Alltoallv(c, send, counts)
		var wantRecv []int64
		for src := 0; src < n; src++ {
			if rc[src] != c.Rank()+1 {
				panic(fmt.Sprintf("Alltoallv recvCounts[%d] = %d, want %d", src, rc[src], c.Rank()+1))
			}
			for i := 0; i <= c.Rank(); i++ {
				wantRecv = append(wantRecv, int64(100*src+c.Rank()))
			}
		}
		assertEq64(c, "Alltoallv", recv, wantRecv)
	})
}

// testFloatFoldBits checks that float64 reductions are bit-identical
// to an ascending-rank-order fold computed locally — the determinism
// guarantee that makes partitions reproducible across transports.
func testFloatFoldBits(t *testing.T, factory Factory) {
	const n = 4
	contrib := func(r int) []float64 {
		// Values chosen so a different fold order changes the low bits.
		return []float64{0.1 * float64(r+1), 1e16, -1.0 / float64(r+3), math.Pi * float64(r)}
	}
	want := append([]float64(nil), contrib(0)...)
	for r := 1; r < n; r++ {
		for i, v := range contrib(r) {
			want[i] += v
		}
	}
	mpi.RunWorld(factory(t, n), 1, func(c *mpi.Comm) {
		got := mpi.Allreduce(c, contrib(c.Rank()), mpi.Sum)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				panic(fmt.Sprintf("rank %d: float fold bit mismatch at %d: %x != %x",
					c.Rank(), i, math.Float64bits(got[i]), math.Float64bits(want[i])))
			}
		}
		fr := mpi.Allreduce(c, contrib(c.Rank()), mpi.Max)
		_ = fr
	})
}

// floatBitsPayload is the float64 message of testFloatBitsP2P for one
// (src, dst) pair: the values a word-typed transport could mangle — a
// NaN with a payload, -0, ±Inf, the smallest subnormal — around
// ordinary values that tag the pair.
func floatBitsPayload(src, dst int) []float64 {
	return []float64{
		float64(src) + 0.25, math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -1.0 / float64(dst+3),
	}
}

// floatBitsP2P sends every other rank its floatBitsPayload as
// math.Float64bits words through Isend64Tag and requires Recv64Tag to
// deliver every bit unchanged: the word path is how float64 payloads
// (SpMV's vector values) cross every transport.
func floatBitsP2P(c *mpi.Comm) {
	n := c.Size()
	tag := mpi.RoundTag(0, 1)
	for dst := 0; dst < n; dst++ {
		if dst == c.Rank() {
			continue
		}
		vals := floatBitsPayload(c.Rank(), dst)
		words := make([]int64, len(vals))
		for i, v := range vals {
			words[i] = int64(math.Float64bits(v))
		}
		mpi.Isend64Tag(c, dst, tag, words)
	}
	for src := 0; src < n; src++ {
		if src == c.Rank() {
			continue
		}
		got := mpi.Recv64Tag(c, src, tag)
		want := floatBitsPayload(src, c.Rank())
		if len(got) != len(want) {
			panic(fmt.Sprintf("rank %d: float message from %d has %d words, want %d", c.Rank(), src, len(got), len(want)))
		}
		for i, v := range want {
			if uint64(got[i]) != math.Float64bits(v) {
				panic(fmt.Sprintf("rank %d: float word %d from %d: %#x, want %#x", c.Rank(), i, src, uint64(got[i]), math.Float64bits(v)))
			}
		}
		c.Recycle64(got)
	}
}

// testFloatBitsP2P checks that float64 payloads shipped as words come
// back bit-exact.
func testFloatBitsP2P(t *testing.T, factory Factory) {
	mpi.RunWorld(factory(t, 3), 1, floatBitsP2P)
}

// testBarrier checks that Barrier separates phases: no rank observes a
// phase counter below the phase it just completed.
func testBarrier(t *testing.T, factory Factory) {
	const n, phases = 4, 8
	var counter atomic.Int64
	mpi.RunWorld(factory(t, n), 1, func(c *mpi.Comm) {
		for p := 1; p <= phases; p++ {
			counter.Add(1)
			c.Barrier()
			if got := counter.Load(); got < int64(p*n) {
				panic(fmt.Sprintf("rank %d: phase %d counter %d < %d after barrier", c.Rank(), p, got, p*n))
			}
			c.Barrier()
		}
	})
}

// testTallyFold checks that per-message piggybacked tallies, folded
// over a complete neighborhood, equal an explicit Allreduce of the
// same contributions.
func testTallyFold(t *testing.T, factory Factory) {
	const n, tallyLen = 4, 6
	mpi.RunWorld(factory(t, n), 1, func(c *mpi.Comm) {
		me := int64(c.Rank())
		tally := make([]int64, tallyLen)
		for i := range tally {
			tally[i] = (me + 1) * int64(i-2) // mixed signs, zeros
		}
		payload := []int64{me, me * me}
		tag := mpi.RoundTag(0, 0)
		for dst := 0; dst < n; dst++ {
			if dst == c.Rank() {
				continue
			}
			mpi.Isend64Tag(c, dst, tag, mpi.AppendTally(c, append([]int64(nil), payload...), tally))
		}
		acc := append([]int64(nil), tally...) // own contribution
		for src := 0; src < n; src++ {
			if src == c.Rank() {
				continue
			}
			msg := mpi.Recv64Tag(c, src, tag)
			body := mpi.SplitTally(msg, acc)
			want := []int64{int64(src), int64(src * src)}
			assertEq64(c, "tally body", body, want)
			c.Recycle64(msg)
		}
		want := mpi.Allreduce(c, tally, mpi.Sum)
		assertEq64(c, "tally fold", acc, want)
	})
}

// testRecycleStability checks that recycled buffers are safe to reuse:
// interleaved sends of varying sizes with aggressive recycling never
// corrupt later messages.
func testRecycleStability(t *testing.T, factory Factory) {
	const rounds = 32
	mpi.RunWorld(factory(t, 2), 1, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for seq := uint32(0); seq < rounds; seq++ {
			size := int(seq%7)*3 + 1
			out := make([]int64, size)
			for i := range out {
				out[i] = int64(c.Rank()+1)*1000 + int64(seq)*10 + int64(i)
			}
			tag := mpi.RoundTag(0, seq)
			mpi.Isend64Tag(c, peer, tag, out)
			got := mpi.Recv64Tag(c, peer, tag)
			if len(got) != size {
				panic(fmt.Sprintf("round %d: got %d elements, want %d", seq, len(got), size))
			}
			for i := range got {
				want := int64(peer+1)*1000 + int64(seq)*10 + int64(i)
				if got[i] != want {
					panic(fmt.Sprintf("round %d: element %d = %d, want %d", seq, i, got[i], want))
				}
			}
			c.Recycle64(got)
		}
	})
}

// engineCase is the fixed workload of the end-to-end determinism
// subtest and the multi-process test: small enough to run in
// milliseconds, irregular enough to exercise ghosts on every rank.
const (
	engineScale  = 8
	engineDeg    = 8
	engineSeed   = 1
	engineRanks  = 4
	engineParts  = 8
	enginePSeeed = 7
)

// EngineConfig returns the partitioner configuration of the engine
// determinism subtest; the multi-process worker must run exactly this.
func EngineConfig(async bool) repro.Config {
	// ThreadsPerRank pinned serial: the subtest compares partitions
	// across transports and processes, and the partitioner is only
	// bit-deterministic at one thread.
	return repro.Config{Parts: engineParts, ThreadsPerRank: 1, RandomDist: true, Seed: enginePSeeed, AsyncExchange: async}
}

// EngineGenerator returns the fixed graph generator of the engine
// determinism subtest.
func EngineGenerator() *repro.Generator {
	return repro.RMAT(engineScale, engineDeg, engineSeed)
}

// EngineReference computes the partition on the in-process reference
// transport with the synchronous exchange engine.
func EngineReference(tb testing.TB) []int32 {
	cfg := EngineConfig(false)
	cfg.Ranks = engineRanks
	parts, _, err := repro.XtraPuLPGen(EngineGenerator(), cfg)
	if err != nil {
		tb.Fatalf("reference partition: %v", err)
	}
	return parts
}

// testEngineDeterminism runs the full partitioner over the transport
// under test, in both exchange modes, and requires bit-identical
// partitions against the in-process synchronous reference; then runs
// the analytics and requires identical results.
func testEngineDeterminism(t *testing.T, factory Factory) {
	ref := EngineReference(t)
	gen := EngineGenerator()

	for _, async := range []bool{false, true} {
		var parts []int32
		mpi.RunWorld(factory(t, engineRanks), 1, func(c *mpi.Comm) {
			p, _, err := repro.XtraPuLPComm(c, gen, EngineConfig(async))
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				parts = p
			}
		})
		if len(parts) != len(ref) {
			t.Fatalf("async=%v: %d parts, want %d", async, len(parts), len(ref))
		}
		for v := range ref {
			if parts[v] != ref[v] {
				t.Fatalf("async=%v: partition diverges from reference at vertex %d: %d != %d", async, v, parts[v], ref[v])
			}
		}
	}

	// Analytics on the reference partition: the transport under test
	// must reproduce the in-process run's iteration counts and values.
	nodes := make([]int32, len(ref))
	for v, p := range ref {
		nodes[v] = p % engineRanks
	}
	wantRep, err := repro.RunAnalyticsReport(gen, nodes, repro.AnalyticsConfig{Ranks: engineRanks, HCSources: 4})
	if err != nil {
		t.Fatalf("reference analytics: %v", err)
	}
	var gotRep repro.AnalyticsReport
	mpi.RunWorld(factory(t, engineRanks), 1, func(c *mpi.Comm) {
		rep, err := repro.RunAnalyticsComm(c, gen, nodes, repro.AnalyticsConfig{HCSources: 4})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			gotRep = rep
		}
	})
	if len(gotRep.Results) != len(wantRep.Results) {
		t.Fatalf("analytics: %d results, want %d", len(gotRep.Results), len(wantRep.Results))
	}
	for i, want := range wantRep.Results {
		got := gotRep.Results[i]
		if got.Name != want.Name || got.Iterations != want.Iterations ||
			math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("analytics %s diverges: got (%d iters, %v), want (%d iters, %v)",
				want.Name, got.Iterations, got.Value, want.Iterations, want.Value)
		}
	}
}

// refFold1 folds f(0)..f(n-1) in ascending rank order with op.
func refFold1(op mpi.Op, f func(r int64) int64, n int) int64 {
	acc := f(0)
	for r := int64(1); r < int64(n); r++ {
		v := f(r)
		switch op {
		case mpi.Sum:
			acc += v
		case mpi.Max:
			if v > acc {
				acc = v
			}
		case mpi.Min:
			if v < acc {
				acc = v
			}
		}
	}
	return acc
}

func assertEq64(c *mpi.Comm, what string, got, want []int64) {
	if len(got) != len(want) {
		panic(fmt.Sprintf("rank %d: %s length %d, want %d", c.Rank(), what, len(got), len(want)))
	}
	for i := range want {
		if got[i] != want[i] {
			panic(fmt.Sprintf("rank %d: %s[%d] = %d, want %d", c.Rank(), what, i, got[i], want[i]))
		}
	}
}

// wantPanic returns a deferred checker asserting the surrounding call
// panicked with a message containing substr.
func wantPanic(t *testing.T, substr string) func() {
	t.Helper()
	return func() {
		p := recover()
		if p == nil {
			t.Fatalf("expected a panic containing %q, got none", substr)
		}
		if !strings.Contains(fmt.Sprint(p), substr) {
			t.Fatalf("panic %q does not contain %q", fmt.Sprint(p), substr)
		}
	}
}
