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

// Exchange compares the bulk-synchronous exchange engine against the
// asynchronous delta engine on all three communication paths:
//
//   - Partitioning: boundary label updates with piggybacked size
//     tallies. Reported per graph: wall time, exchanged-element volume
//     during the partitioning stages, the Allreduce count (the
//     per-iteration settle barrier the piggybacked tallies retire),
//     and the edge cut — which must be identical, the async path is a
//     pure transport change at fixed seeds.
//   - Analytics: the value flows driven by PageRank, WCC, and a BFS
//     sweep. The async engine runs them split-phase with the
//     convergence counters piggybacked on the messages, so its
//     Allreduce count collapses and its steady-state rounds allocate
//     nothing (the Allocs/rnd column measures one boundary value
//     round end to end — software-pipelined to the configured depth
//     in async mode, reported by the PipeDepth column). A separate
//     Harmonic Centrality measurement compares the sequential
//     BFS-per-source loop (sync mode) against the multi-wave engine
//     (async mode, Config.PipeDepth/2 concurrent waves): the HCWaves,
//     HCAllred, and HCs/src columns show the async engine issuing
//     fewer total Allreduces and lower wall time per source while the
//     centralities stay bit-identical.
//   - SpMV: the expand/fold phases under 1D and 2D layouts, where the
//     async engine also bypasses self-destined shares and — on
//     complete expand neighborhoods (NormRide column) — piggybacks
//     the power iteration's ∞-norm on the expand messages, collapsing
//     the Allreduces column from iterations to a constant 2.
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

// modeCells names a comparison row and computes its volume reduction
// against the sync baseline, recording the baseline on the sync pass.
func modeCells(async bool, syncVol *int64, vol int64) (mode, reduction string) {
	if !async {
		*syncVol = vol
		return "sync", "-"
	}
	reduction = "-"
	if *syncVol > 0 {
		reduction = fmt.Sprintf("%.1f%%", 100*(1-float64(vol)/float64(*syncVol)))
	}
	return "async-delta", reduction
}

// exchangePartition is the partitioning-path comparison.
func exchangePartition(cfg Config) error {
	seed := cfg.seed()
	const parts = 16
	ranks := scalePick(cfg.Scale, 4, 8)
	fmt.Fprintln(cfg.W, "Partitioning path (label updates + size settles):")
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Mode", "Time(s)", "ExchElems", "Reduction", "Allreduces", "EdgeCut")
	for _, tg := range representatives(cfg.Scale, seed) {
		var syncVol int64
		for _, async := range []bool{false, true} {
			// ThreadsPerRank pinned serial: the comparison asserts the
			// async path changes nothing but the transport, and the
			// partitioner is bit-deterministic only at one thread.
			_, rep, err := repro.XtraPuLPGen(tg.gen, repro.Config{
				Parts: parts, Ranks: ranks, ThreadsPerRank: 1, RandomDist: true, Seed: seed,
				AsyncExchange: async, PipeDepth: cfg.PipeDepth,
			})
			if err != nil {
				return fmt.Errorf("exchange: %s async=%v: %w", tg.name, async, err)
			}
			mode, reduction := modeCells(async, &syncVol, rep.ExchangeVolume)
			t.add(tg.name, fmt.Sprintf("%d", ranks), "1", mode, secs(rep.TotalTime),
				fmt.Sprintf("%d", rep.ExchangeVolume), reduction,
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
// full-boundary value round in the graph's configured mode, averaged
// over allocRounds rounds after warmup, and reports the exchanger's
// observed pipeline depth (0 in sync mode). It is a collective: every
// rank runs the same rounds; rank 0 reads the process-wide allocation
// counter between two barriers, so the result covers all ranks (the
// async engine's rounds are expected to allocate zero in steady
// state).
//
// In async mode the rounds are software-pipelined the way the
// overlapped BFS runs them: each call posts the next round with
// BeginValues BEFORE flushing the oldest one, so the exchanger's full
// configured depth of rounds is in flight throughout the measured
// window and the reported depth is DeltaExchanger.Depth. Depth-1
// rounds stay pending when the measurement ends; Graph.Close settles
// them during teardown.
func measureValueRoundAllocs(c *mpi.Comm, dg *dgraph.Graph) (float64, int64) {
	bv := dg.BoundaryVertices()
	vals := make([]int64, dg.NTotal())
	for i := range vals {
		vals[i] = int64(i)
	}
	depth := func() int64 { return 0 }
	round := func() { dg.ExchangeInt64(bv, vals) }
	if dg.AsyncExchange() {
		// Measure at the split-phase API the overlapped analytics use,
		// tally frame included.
		ex := dg.AsyncExchanger()
		payload := make([]int64, len(bv))
		tally := []int64{1}
		pending := 0
		// Reset the lifetime high-water mark (the analytics already
		// drove it to 2) so the reported depth is what THIS measurement
		// loop achieves: the PipeDepth column must drop if the pipelined
		// schedule below regresses.
		ex.MaxDepth = 0
		depth = func() int64 { return int64(ex.MaxDepth) }
		round = func() {
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
	return float64(m1.Mallocs-m0.Mallocs) / allocRounds, depth()
}

// exchangeAnalytics measures the value-flow paths: total elements
// sent, Allreduce operations, and steady-state allocations while
// PageRank, WCC, and one BFS run over a vertex-block placement — plus
// a separate Harmonic Centrality measurement comparing the sequential
// BFS-per-source loop (sync mode) against the multi-wave engine (async
// mode, Config.PipeDepth/2 concurrent waves).
//
//repro:timing
func exchangeAnalytics(cfg Config) error {
	seed := cfg.seed()
	ranks := scalePick(cfg.Scale, 4, 8)
	prIters := scalePick(cfg.Scale, 10, 20)
	hcSources := scalePick(cfg.Scale, 8, 24)
	threads := cfg.threads()
	fmt.Fprintf(cfg.W, "\nAnalytics path (PR + WCC + BFS value exchanges; HC with %d sources):\n", hcSources)
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Mode", "Time(s)", "Sweep(s)", "ExchElems", "Reduction", "Allreduces",
		"Allocs/rnd", "PipeDepth", "HCWaves", "HCAllred", "HCs/src")
	for _, tg := range representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 3, 6)] {
		shared, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("exchange: %s: %w", tg.name, err)
		}
		placement := partition.VertexBlock(shared, ranks)
		srcs := analytics.HCSourceList(hcSources, tg.gen.N)
		var syncVol int64
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
				dg.SetTermEpoch(cfg.TermEpoch)
				c.ResetStats()
				start := time.Now()
				_, prRes := analytics.PageRank(dg, prIters, 0.85)
				_, wccRes := analytics.WCC(dg)
				analytics.BFS(dg, 0)
				elapsed := time.Since(start)
				// HC separately: in sync mode the sequential loop pays
				// per-round termination plus one eccentricity Allreduce
				// per source; the multi-wave engine piggybacks per-wave
				// termination and needs no eccentricities at all.
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
			mode, reduction := modeCells(async, &syncVol, volume)
			hcPerSrc := hcWall.Seconds()
			if len(srcs) > 0 {
				hcPerSrc /= float64(len(srcs))
			}
			t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), mode, secs(wall), secs(sweep),
				fmt.Sprintf("%d", volume), reduction,
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
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Layout", "Mode", "Sweep(s)", "SentVals", "Reduction", "Allreduces", "NormRide")
	for _, tg := range representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 2, 4)] {
		shared, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("exchange: %s: %w", tg.name, err)
		}
		placement := partition.VertexBlock(shared, ranks)
		for _, layout := range []string{repro.Layout1D, repro.Layout2D} {
			var syncVol int64
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
				mode, reduction := modeCells(async, &syncVol, volume)
				t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), layout, mode, secs(sweep),
					fmt.Sprintf("%d", volume), reduction,
					fmt.Sprintf("%d", reductions),
					fmt.Sprintf("%v", piggyback))
			}
		}
	}
	t.flush()
	return nil
}
