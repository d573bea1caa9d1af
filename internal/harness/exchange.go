package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spmv"
)

// Exchange compares the two exchange modes on all three communication
// paths:
//
//   - Partitioning: boundary label updates plus per-iteration size
//     settles. Both modes ship the same packed updates on the delta
//     exchanger; sync settles with an Allreduce per iteration, async
//     piggybacks the size tallies on the updates. Reported per graph:
//     wall time, exchanged-element volume during the partitioning
//     stages, the Allreduce count (the per-iteration settle barrier
//     the piggybacked tallies retire), and the edge cut — which must
//     be identical, the mode changes only how iterations settle.
//   - Analytics: the value flows driven by PageRank, WCC, and a BFS
//     sweep, split-phase on the delta exchanger in both modes. Async
//     piggybacks the convergence counters on the messages, so its
//     Allreduce count collapses. The Allocs/rnd column measures one
//     boundary value round end to end — software-pipelined to the
//     configured depth, reported by the PipeDepth column; steady-state
//     rounds allocate nothing. A separate Harmonic Centrality
//     measurement runs Config.PipeDepth/2 concurrent BFS waves in both
//     modes: the HCWaves, HCAllred, and HCs/src columns show async
//     issuing fewer total Allreduces while the centralities stay
//     bit-identical.
//   - SpMV: the expand/fold phases under 1D and 2D layouts. Both modes
//     send point-to-point and bypass self-destined shares, so the
//     SentVals column is equal; they differ only in the Allreduces
//     and NormRide columns. On complete expand neighborhoods async
//     piggybacks the power iteration's deferred ∞-norm on the expand
//     messages, collapsing Allreduces from iterations to a constant 2.
//
//repro:deterministic
func Exchange(cfg Config) error {
	if err := exchangePartition(cfg); err != nil {
		return err
	}
	if err := exchangeAnalytics(cfg); err != nil {
		return err
	}
	return exchangeSpMV(cfg)
}

// modeName names a comparison row's exchange mode.
func modeName(async bool) string {
	if async {
		return "async-delta"
	}
	return "sync"
}

// exchangePartition is the partitioning-path comparison.
func exchangePartition(cfg Config) error {
	seed := cfg.seed()
	const parts = 16
	ranks := scalePick(cfg.Scale, 4, 8)
	fmt.Fprintln(cfg.W, "Partitioning path (label updates + size settles):")
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Mode", "Time(s)", "ExchElems", "Allreduces", "EdgeCut")
	for _, tg := range representatives(cfg.Scale, seed) {
		for _, async := range []bool{false, true} {
			// ThreadsPerRank pinned serial: the comparison asserts the
			// mode changes nothing but how iterations settle, and the
			// partitioner is bit-deterministic only at one thread.
			_, rep, err := repro.XtraPuLPGen(tg.gen, repro.Config{
				Parts: parts, Ranks: ranks, ThreadsPerRank: 1, RandomDist: true, Seed: seed,
				AsyncExchange: async, PipeDepth: cfg.PipeDepth,
			})
			if err != nil {
				return fmt.Errorf("exchange: %s async=%v: %w", tg.name, async, err)
			}
			t.add(tg.name, fmt.Sprintf("%d", ranks), "1", modeName(async), secs(rep.TotalTime),
				fmt.Sprintf("%d", rep.ExchangeVolume),
				fmt.Sprintf("%d", rep.ReductionOps),
				fmt.Sprintf("%.3f", rep.Quality.EdgeCutRatio))
		}
	}
	t.flush()
	return nil
}

// allocRounds is how many steady-state value rounds the allocation
// measurement averages over (after warmup).
const allocRounds = 64

// measureValueRoundAllocs measures the heap allocations of one
// full-boundary value round, averaged over allocRounds rounds after
// warmup, and reports the exchanger's observed pipeline depth. It is a
// collective: every rank runs the same rounds; rank 0 reads the
// process-wide allocation counter between two barriers, so the result
// covers all ranks (steady-state rounds are expected to allocate
// zero).
//
// The rounds are software-pipelined the way the BFS wave engine runs
// them: each call posts the next round with BeginValues BEFORE flushing
// the oldest one, so the exchanger's full configured depth of rounds
// is in flight throughout the measured window and the reported depth
// is DeltaExchanger.Depth. In async mode each round carries a tally
// frame, as the analytics' piggybacked counters do. Depth-1 rounds stay
// pending when the measurement ends; Graph.Close settles them during
// teardown.
func measureValueRoundAllocs(c *mpi.Comm, dg *dgraph.Graph) (float64, int64) {
	bv := dg.BoundaryVertices()
	vals := make([]int64, dg.NTotal())
	for i := range vals {
		vals[i] = int64(i)
	}
	ex := dg.AsyncExchanger()
	payload := make([]int64, len(bv))
	var tally []int64
	if dg.AsyncExchange() {
		tally = []int64{1}
	}
	pending := 0
	// Reset the lifetime high-water mark (the analytics already drove
	// it to 2) so the reported depth is what THIS measurement loop
	// achieves: the PipeDepth column must drop if the pipelined
	// schedule below regresses.
	ex.MaxDepth = 0
	round := func() {
		for i, v := range bv {
			payload[i] = vals[v]
		}
		ex.BeginValues(bv, payload, tally)
		pending++
		if pending == ex.Depth() {
			ex.FlushValues()
			pending--
		}
	}
	// Warmup must reach the transport's in-flight high-water mark (up
	// to two rounds of pooled buffers per neighbor pair, and ranks can
	// drift a round apart while free-running) before the measured
	// window opens.
	for i := 0; i < 32; i++ {
		round()
	}
	c.Barrier()
	var m0, m1 runtime.MemStats
	if c.Rank() == 0 {
		// Flush the preceding run's garbage out of the measured window;
		// the second cycle waits out finalizers the first one queued.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	c.Barrier()
	for i := 0; i < allocRounds; i++ {
		round()
	}
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m1)
	}
	c.Barrier()
	return float64(m1.Mallocs-m0.Mallocs) / allocRounds, int64(ex.MaxDepth)
}

// exchangeAnalytics measures the value-flow paths: total elements
// sent, Allreduce operations, and steady-state allocations while
// PageRank, WCC, and one BFS run over a vertex-block placement — plus
// a separate Harmonic Centrality measurement of the multi-wave engine
// (Config.PipeDepth/2 concurrent waves) in each mode.
//
//repro:timing
func exchangeAnalytics(cfg Config) error {
	seed := cfg.seed()
	ranks := scalePick(cfg.Scale, 4, 8)
	prIters := scalePick(cfg.Scale, 10, 20)
	hcSources := scalePick(cfg.Scale, 8, 24)
	threads := cfg.threads()
	fmt.Fprintf(cfg.W, "\nAnalytics path (PR + WCC + BFS value exchanges; HC with %d sources):\n", hcSources)
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Mode", "Time(s)", "Sweep(s)", "ExchElems", "Allreduces",
		"Allocs/rnd", "PipeDepth", "HCWaves", "HCAllred", "HCs/src")
	for _, tg := range representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 3, 6)] {
		shared, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("exchange: %s: %w", tg.name, err)
		}
		placement := partition.VertexBlock(shared, ranks)
		srcs := analytics.HCSourceList(hcSources, tg.gen.N)
		for _, async := range []bool{false, true} {
			var volume, reductions, depth, hcWaves, hcRed int64
			var wall, hcWall, sweep time.Duration
			var allocs float64
			mpi.RunThreads(ranks, threads, func(c *mpi.Comm) {
				dg, err := dgraph.FromEdgeChunks(c, tg.gen.N, tg.gen.EdgesChunk(c.Rank(), c.Size()),
					dgraph.PartsDist{Parts: placement})
				if err != nil {
					panic(err)
				}
				dg.SetPipeDepth(cfg.PipeDepth)
				dg.SetAsyncExchange(async)
				c.ResetStats()
				start := time.Now()
				_, prRes := analytics.PageRank(dg, prIters, 0.85)
				_, wccRes := analytics.WCC(dg)
				analytics.BFS(dg, 0)
				elapsed := time.Since(start)
				// HC separately: in sync mode every wave pays a
				// termination Allreduce per round; async piggybacks
				// per-wave termination. Neither needs eccentricities.
				redBefore := c.Stats().ReductionOps
				hcStart := time.Now()
				_, hcRes := analytics.HarmonicCentrality(dg, srcs)
				hcElapsed := time.Since(hcStart)
				sweepTime := prRes.SweepTime + wccRes.SweepTime + hcRes.SweepTime
				hcReduce := c.Stats().ReductionOps - redBefore
				waves := int64(analytics.HCWaves(dg))
				red := redBefore
				v := mpi.AllreduceScalar(c, c.Stats().ElemsSent, mpi.Sum)
				a, d := measureValueRoundAllocs(c, dg)
				// Settles the measurement's still-pending pipelined
				// rounds (their messages are already in flight on every
				// rank) and stops the drainer goroutine.
				dg.Close()
				if c.Rank() == 0 {
					volume, reductions, wall, allocs, depth = v, red, elapsed, a, d
					hcWaves, hcRed, hcWall = waves, hcReduce, hcElapsed
					sweep = sweepTime
				}
			})
			hcPerSrc := hcWall.Seconds()
			if len(srcs) > 0 {
				hcPerSrc /= float64(len(srcs))
			}
			t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), modeName(async), secs(wall), secs(sweep),
				fmt.Sprintf("%d", volume),
				fmt.Sprintf("%d", reductions),
				fmt.Sprintf("%.1f", allocs),
				fmt.Sprintf("%d", depth),
				fmt.Sprintf("%d", hcWaves),
				fmt.Sprintf("%d", hcRed),
				fmt.Sprintf("%.4f", hcPerSrc))
		}
	}
	t.flush()
	return nil
}

// exchangeSpMV measures the expand/fold phases under both layouts.
func exchangeSpMV(cfg Config) error {
	seed := cfg.seed()
	ranks := scalePick(cfg.Scale, 4, 16)
	iters := scalePick(cfg.Scale, 10, 100)
	threads := cfg.threads()
	fmt.Fprintln(cfg.W, "\nSpMV path (expand/fold phases):")
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Layout", "Mode", "Sweep(s)", "SentVals", "Allreduces", "NormRide")
	for _, tg := range representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 2, 4)] {
		shared, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("exchange: %s: %w", tg.name, err)
		}
		placement := partition.VertexBlock(shared, ranks)
		for _, layout := range []string{repro.Layout1D, repro.Layout2D} {
			for _, async := range []bool{false, true} {
				l := spmv.OneD
				if layout == repro.Layout2D {
					l = spmv.TwoD
				}
				var volume, reductions int64
				var piggyback bool
				var sweep time.Duration
				var runErr error
				mpi.RunThreads(ranks, threads, func(c *mpi.Comm) {
					res, err := spmv.Run(c, shared, placement, spmv.Options{
						Layout: l, Iterations: iters, Async: async,
					})
					if err != nil {
						if c.Rank() == 0 {
							runErr = err
						}
						return
					}
					v := mpi.AllreduceScalar(c, res.CommVolume, mpi.Sum)
					if c.Rank() == 0 {
						volume = v
						reductions, piggyback = res.Reductions, res.NormPiggyback
						sweep = res.MultiplyTime
					}
				})
				if runErr != nil {
					return fmt.Errorf("exchange: %s spmv %s: %w", tg.name, layout, runErr)
				}
				t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), layout, modeName(async), secs(sweep),
					fmt.Sprintf("%d", volume),
					fmt.Sprintf("%d", reductions),
					fmt.Sprintf("%v", piggyback))
			}
		}
	}
	t.flush()
	return nil
}
