package dgraph

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// Depth-2 pipelining and the drainer lifecycle: these tests drive the
// exchanger with two rounds in flight and assert results stay
// bit-identical to the sequential Begin/Flush schedule, that pipelined
// steady-state rounds still allocate nothing, and that Close actually
// releases the drainer goroutine (the finalizer is only a backstop).

// TestCloseStopsDrainerGoroutine cycles exchanger create/use/Close and
// asserts the process goroutine count does not grow — the regression
// test for drainer leaks in long-lived processes, where finalizers
// (the old shutdown path) are not guaranteed to run.
func TestCloseStopsDrainerGoroutine(t *testing.T) {
	g := gen.ER(200, 1000, 7)
	const ranks = 2
	mpi.Run(ranks, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 3})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		cycle := func() {
			ex := dg.AsyncExchanger()
			ex.BeginValues(bv, payload, nil)
			ex.FlushValues()
			dg.Close()
		}
		cycle() // warm caches (boundary plan arenas, mpi pool)
		c.Barrier()
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			cycle()
		}
		c.Barrier()
		// Closed drainers exit synchronously (Close waits on the done
		// channel), so the count must not trend upward. Allow a little
		// slack for unrelated runtime goroutines.
		after := runtime.NumGoroutine()
		if after > before+ranks {
			t.Errorf("rank %d: %d goroutines after 20 create/Close cycles, started with %d (drainer leak)",
				c.Rank(), after, before)
		}
	})
}

// TestCloseWithPendingRoundSettles posts a round and Closes without
// flushing: Close must join the in-flight round and still stop the
// drainer.
func TestCloseWithPendingRoundSettles(t *testing.T) {
	g := gen.ER(200, 1000, 7)
	mpi.Run(2, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 3})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		ex.BeginValues(bv, payload, nil)
		ex.BeginValues(bv, payload, nil) // two rounds in flight
		dg.Close()                       // settles both, then stops the drainer
		if ex.InFlight() != 0 {
			t.Errorf("rank %d: %d rounds still pending after Close", c.Rank(), ex.InFlight())
		}
		// A closed exchanger is reusable: the next round restarts the
		// drainer.
		ex.BeginValues(bv, payload, nil)
		ex.FlushValues()
		ex.Close()
	})
}

// TestPipelinedValueRoundsMatchSequential runs the same sequence of
// full-boundary value rounds twice — once Begin/Flush strictly
// alternating, once with two rounds in flight (BFS-style software
// pipeline) — and asserts every round's delivered ghost values and
// folded tallies are bit-identical, and that the pipelined schedule
// actually reached depth 2.
func TestPipelinedValueRoundsMatchSequential(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	const rounds = 12
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()

		// payloadFor derives round r's payload for owned vertex v
		// deterministically so both schedules ship identical data.
		payloadFor := func(r int, v int32) int64 {
			return int64(r+1)*1_000_003 + int64(dg.L2G[v])
		}
		run := func(pipelined bool) ([][]int64, [][2]float64) {
			vals := make([][]int64, rounds)    // per round: ghost lid -> payload (dense by NTotal)
			sums := make([][2]float64, rounds) // per round: FoldFloat(0), FoldFloatMax(1)
			payload := make([]int64, len(bv))
			tallies := make([][]int64, rounds)
			for r := range tallies {
				tallies[r] = []int64{
					int64(math.Float64bits(float64(c.Rank()+1) * float64(r+1) * 0.125)),
					int64(math.Float64bits(float64((c.Rank()*7+r)%5) + 0.5)),
				}
			}
			settle := func(r int) {
				outL, outP, tr := ex.FlushValues()
				dense := make([]int64, dg.NTotal())
				for i, lid := range outL {
					dense[lid] = outP[i]
				}
				vals[r] = dense
				sums[r] = [2]float64{tr.FoldFloat(0), tr.FoldFloatMax(1)}
			}
			post := func(r int) {
				for i, v := range bv {
					payload[i] = payloadFor(r, v)
				}
				ex.BeginValues(bv, payload, tallies[r])
			}
			if !pipelined {
				for r := 0; r < rounds; r++ {
					post(r)
					settle(r)
				}
				return vals, sums
			}
			post(0)
			for r := 1; r < rounds; r++ {
				post(r) // two rounds now in flight
				settle(r - 1)
			}
			settle(rounds - 1)
			return vals, sums
		}

		seqVals, seqSums := run(false)
		base := ex.MaxDepth
		pipVals, pipSums := run(true)
		if base >= DefaultPipeDepth {
			t.Errorf("rank %d: sequential schedule reached depth %d", c.Rank(), base)
		}
		if ex.MaxDepth != DefaultPipeDepth {
			t.Errorf("rank %d: pipelined schedule reached depth %d, want %d", c.Rank(), ex.MaxDepth, DefaultPipeDepth)
		}
		for r := 0; r < rounds; r++ {
			if seqSums[r] != pipSums[r] {
				t.Errorf("rank %d round %d: folded tallies %v (sequential) vs %v (pipelined)",
					c.Rank(), r, seqSums[r], pipSums[r])
				return
			}
			for lid := range seqVals[r] {
				if seqVals[r][lid] != pipVals[r][lid] {
					t.Errorf("rank %d round %d: ghost value at lid %d diverges: %d vs %d",
						c.Rank(), r, lid, seqVals[r][lid], pipVals[r][lid])
					return
				}
			}
		}
	})
}

// TestPipelinedMixedValuePushRounds interleaves the two value-flow
// directions with two rounds in flight — BeginPush posted while the
// previous BeginValues is still pending, exactly the overlapped BFS
// schedule — and checks both directions deliver what one-round-at-a-time
// Begin/Flush pairs deliver.
func TestPipelinedMixedValuePushRounds(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		fwdPayload := make([]int64, len(bv))
		for i, v := range bv {
			fwdPayload[i] = dg.L2G[v] * 17
		}
		ghosts := make([]int32, dg.NGhost)
		revPayload := make([]int64, dg.NGhost)
		for i := range ghosts {
			ghosts[i] = int32(dg.NLocal + i)
			revPayload[i] = dg.L2G[ghosts[i]] * 23
		}

		// Sequential reference: each round settled before the next.
		ex.BeginValues(bv, fwdPayload, nil)
		wantFL, wantFP, _ := ex.FlushValues()
		refF := make([]int64, dg.NTotal())
		for i, lid := range wantFL {
			refF[lid] = wantFP[i]
		}
		ex.BeginPush(ghosts, revPayload, nil)
		wantRL, wantRP, _ := ex.FlushPush()
		refR := make([]int64, dg.NTotal())
		for i, lid := range wantRL {
			refR[lid] += wantRP[i]
		}

		// Pipelined: Values posted, Push posted behind it, then both
		// flushed oldest-first.
		ex.BeginValues(bv, fwdPayload, nil)
		ex.BeginPush(ghosts, revPayload, nil)
		if ex.InFlight() != 2 {
			t.Errorf("rank %d: InFlight = %d, want 2", c.Rank(), ex.InFlight())
		}
		gotFL, gotFP, _ := ex.FlushValues()
		gotF := make([]int64, dg.NTotal())
		for i, lid := range gotFL {
			gotF[lid] = gotFP[i]
		}
		gotRL, gotRP, _ := ex.FlushPush()
		gotR := make([]int64, dg.NTotal())
		for i, lid := range gotRL {
			gotR[lid] += gotRP[i]
		}
		for lid := range refF {
			if refF[lid] != gotF[lid] {
				t.Errorf("rank %d: forward value at lid %d: %d vs %d", c.Rank(), lid, refF[lid], gotF[lid])
				return
			}
			if refR[lid] != gotR[lid] {
				t.Errorf("rank %d: reverse value at lid %d: %d vs %d", c.Rank(), lid, refR[lid], gotR[lid])
				return
			}
		}
	})
}

// TestPipelinedRoundsSteadyStateAllocFree is the AllocsPerRun == 0
// regression for the DEPTH-2 schedule: with two rounds permanently in
// flight, a steady-state Begin+Flush pair must still never touch the
// heap (the drainer's double-buffered arenas and the mpi pool absorb
// the deeper in-flight window).
func TestPipelinedRoundsSteadyStateAllocFree(t *testing.T) {
	allocHarness(t, 4, func(dg *Graph) func() {
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		for i, v := range bv {
			payload[i] = int64(v) * 3
		}
		tally := []int64{1}
		pending := 0
		return func() {
			ex.BeginValues(bv, payload, tally)
			pending++
			if pending == DefaultPipeDepth {
				ex.FlushValues()
				pending--
			}
		}
	}, "pipelined BeginValues/FlushValues")
}

// TestTallyRoundMaxFolds exercises the max-combining folds: integer
// Max and float FoldFloatMax must deliver the global extrema of the
// per-rank contributions on a complete neighborhood.
func TestTallyRoundMaxFolds(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	const ranks = 4
	mpi.Run(ranks, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		ex := dg.AsyncExchanger()
		if !ex.NeighborhoodComplete() {
			t.Errorf("rank %d: want complete neighborhood", c.Rank())
			return
		}
		me := int64(c.Rank())
		f := 1.5 * float64(c.Rank()+1)
		tally := []int64{me * 10, int64(math.Float64bits(f))}
		ex.BeginValues(nil, nil, tally)
		_, _, tr := ex.FlushValues()
		if got, want := tr.Max(0), int64((ranks-1)*10); got != want {
			t.Errorf("rank %d: Max = %d, want %d", c.Rank(), got, want)
		}
		if got, want := tr.FoldFloatMax(1), 1.5*float64(ranks); got != want {
			t.Errorf("rank %d: FoldFloatMax = %v, want %v", c.Rank(), got, want)
		}
		// And FoldFloatMax must equal the Allreduce it replaces, bit
		// for bit.
		if got, want := tr.FoldFloatMax(1), mpi.AllreduceScalar(c, f, mpi.Max); got != want {
			t.Errorf("rank %d: FoldFloatMax %v != Allreduce(Max) %v", c.Rank(), got, want)
		}
	})
}

// A value round posted behind a pending update round must be rejected
// at post time: value sends are eager while update sends are deferred
// to Flush, so the combination would invert frame order in the pair
// FIFOs (the drainer would see it as a skewed pipeline deep in
// Recv64Tag — the panic here names the actual protocol error instead).
func TestValueRoundBehindUpdateRoundPanics(t *testing.T) {
	g := gen.ER(60, 240, 31)
	mpi.Run(1, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), BlockDist{N: g.N, P: 1})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		defer dg.Close()
		ex := dg.NewDeltaExchanger()
		defer ex.Close()
		ex.Begin()
		defer func() {
			if recover() == nil {
				t.Error("expected panic for BeginValues behind a pending update round")
			}
			ex.Flush(nil) // settle the legally posted update round
		}()
		ex.BeginValues(nil, nil, nil)
	})
}

// TestRoundTagSkewPanics sends a frame with a forged round tag and
// asserts the tagged receive rejects it — the wire-level guard that
// turns a skewed pipeline into a loud failure.
func TestRoundTagSkewPanics(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			mpi.Isend64Tag(c, 1, 7, []int64{42})
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("Recv64Tag accepted a mismatched round tag")
			}
		}()
		mpi.Recv64Tag(c, 0, 8)
	})
}

// TestWaveTagSkewPanicsNamingWave forges a frame from the wrong WAVE
// and asserts the panic decodes the composed tag, naming both waves
// and rounds — the multi-wave guard on top of the plain skew panic.
func TestWaveTagSkewPanicsNamingWave(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			mpi.Isend64Tag(c, 1, mpi.RoundTag(3, 7), []int64{42})
			return
		}
		defer func() {
			p := recover()
			if p == nil {
				t.Error("Recv64Tag accepted a frame from the wrong wave")
				return
			}
			msg := fmt.Sprint(p)
			if !strings.Contains(msg, "wave 3 round 7") || !strings.Contains(msg, "wave 2 round 7") {
				t.Errorf("wave-skew panic %q does not name both waves and rounds", msg)
			}
		}()
		mpi.Recv64Tag(c, 0, mpi.RoundTag(2, 7))
	})
}

// TestRoundTagCompose round-trips the wave/sequence split, including
// the 24-bit sequence wrap both sides mask identically.
func TestRoundTagCompose(t *testing.T) {
	cases := []struct {
		wave int
		seq  uint32
	}{{0, 0}, {1, 5}, {mpi.MaxTagWave, 1<<mpi.TagSeqBits - 1}, {3, 0xdeadbe}}
	for _, tc := range cases {
		w, s := mpi.SplitRoundTag(mpi.RoundTag(tc.wave, tc.seq))
		if w != tc.wave || s != tc.seq&(1<<mpi.TagSeqBits-1) {
			t.Errorf("RoundTag(%d,%d) round-tripped to (%d,%d)", tc.wave, tc.seq, w, s)
		}
	}
	// Wrapping sequences must compose to equal tags on both sides.
	if mpi.RoundTag(2, 1<<mpi.TagSeqBits) != mpi.RoundTag(2, 0) {
		t.Error("sequence wrap changed the tag")
	}
}

// TestSetPipeDepthValidation: the knob rejects depths the split-phase
// schedules cannot run at, accepts 0 as the default, and refuses to
// change a depth the exchanger was already built with.
func TestSetPipeDepthValidation(t *testing.T) {
	g := gen.ER(60, 240, 31)
	mpi.Run(1, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), BlockDist{N: g.N, P: 1})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		defer dg.Close()
		mustPanic := func(what string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", what)
				}
			}()
			f()
		}
		mustPanic("SetPipeDepth(1)", func() { dg.SetPipeDepth(1) })
		mustPanic("SetPipeDepth(-2)", func() { dg.SetPipeDepth(-2) })
		if dg.PipeDepth() != DefaultPipeDepth {
			t.Errorf("default PipeDepth = %d, want %d", dg.PipeDepth(), DefaultPipeDepth)
		}
		dg.SetPipeDepth(6)
		if dg.PipeDepth() != 6 {
			t.Errorf("PipeDepth = %d after SetPipeDepth(6)", dg.PipeDepth())
		}
		if ex := dg.AsyncExchanger(); ex.Depth() != 6 {
			t.Errorf("exchanger depth = %d, want 6", ex.Depth())
		}
		dg.SetPipeDepth(6) // same depth after construction: allowed
		mustPanic("SetPipeDepth after exchanger built", func() { dg.SetPipeDepth(4) })
	})
}

// TestDeepPipelineRoundsMatchSequential drives a depth-4 exchanger
// with four rounds permanently in flight and asserts every round's
// ghost values and folded tallies are bit-identical to the strictly
// alternating schedule — the depth-k generalization of
// TestPipelinedValueRoundsMatchSequential, exercising the modulo-depth
// arena cycling. It also checks the depth-k overflow guard: a fifth
// pending round must panic.
func TestDeepPipelineRoundsMatchSequential(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	const depth = 4
	const rounds = 13
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		dg.SetPipeDepth(depth)
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		payloadFor := func(r int, v int32) int64 {
			return int64(r+1)*1_000_003 + int64(dg.L2G[v])
		}
		run := func(inFlight int) ([][]int64, []float64) {
			vals := make([][]int64, rounds)
			sums := make([]float64, rounds)
			payload := make([]int64, len(bv))
			tallies := make([][]int64, rounds)
			for r := range tallies {
				tallies[r] = []int64{int64(math.Float64bits(float64(c.Rank()+1) * float64(r+1) * 0.125))}
			}
			post := func(r int) {
				for i, v := range bv {
					payload[i] = payloadFor(r, v)
				}
				ex.BeginValues(bv, payload, tallies[r])
			}
			settle := func(r int) {
				outL, outP, tr := ex.FlushValues()
				dense := make([]int64, dg.NTotal())
				for i, lid := range outL {
					dense[lid] = outP[i]
				}
				vals[r] = dense
				sums[r] = tr.FoldFloat(0)
			}
			pending := 0
			for r := 0; r < rounds; r++ {
				post(r)
				pending++
				if pending == inFlight {
					settle(r - pending + 1)
					pending--
				}
			}
			for ; pending > 0; pending-- {
				settle(rounds - pending)
			}
			return vals, sums
		}
		seqVals, seqSums := run(1)
		ex.MaxDepth = 0
		deepVals, deepSums := run(depth)
		if ex.MaxDepth != depth {
			t.Errorf("rank %d: deep schedule reached depth %d, want %d", c.Rank(), ex.MaxDepth, depth)
		}
		for r := 0; r < rounds; r++ {
			if seqSums[r] != deepSums[r] {
				t.Errorf("rank %d round %d: folded tally %v (sequential) vs %v (depth %d)",
					c.Rank(), r, seqSums[r], deepSums[r], depth)
				return
			}
			for lid := range seqVals[r] {
				if seqVals[r][lid] != deepVals[r][lid] {
					t.Errorf("rank %d round %d: ghost value at lid %d diverges: %d vs %d",
						c.Rank(), r, lid, seqVals[r][lid], deepVals[r][lid])
					return
				}
			}
		}
		// Depth overflow: posting depth+1 rounds must panic before any
		// message leaves, so recovering locally keeps ranks consistent.
		for i := 0; i < depth; i++ {
			ex.BeginValues(nil, nil, nil)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: round %d posted past the configured depth", c.Rank(), depth+1)
				}
			}()
			ex.BeginValues(nil, nil, nil)
		}()
		for i := 0; i < depth; i++ {
			ex.FlushValues()
		}
	})
}

// The drainer must still ferry panics (here: mailbox poison after a
// sibling rank's crash) back through Flush with rounds pipelined.
func TestPipelinedDrainerFerriesPanics(t *testing.T) {
	g := gen.ER(200, 1000, 7)
	defer func() {
		if recover() == nil {
			t.Error("expected the injected rank panic to propagate")
		}
	}()
	mpi.Run(2, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 3}) //lint:ignore exlifecycle rank 1 panics by design and the poison tears the world down; closing during unwind would double-panic
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		if c.Rank() == 1 {
			// Crash before sending: rank 0's drainer blocks until the
			// poison wakes it.
			panic("injected failure")
		}
		ex.BeginValues(bv, payload, nil) //lint:ignore collectivesym rank 1 panics above by design; poison propagation is what this test checks
		ex.BeginValues(bv, payload, nil)
		time.Sleep(10 * time.Millisecond) // let the drainer park in Recv64
		ex.FlushValues()                  //lint:ignore collectivesym deliberate asymmetry: only rank 0 reaches the flush, which must re-raise the poison panic
		ex.FlushValues()
	})
}
