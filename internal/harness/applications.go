package harness

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/spmv"
)

// Fig8 reproduces the analytics study: the six distributed analytics
// (HC, KC, LP, PR, SCC, WCC) on the WDC proxy, with the graph
// distributed by four strategies — EdgeBlock, Random, VertexBlock, and
// XtraPuLP (block-initialized, as the paper does for this experiment).
// For XtraPuLP the partitioning time itself is included as a column,
// matching the paper's end-to-end accounting.
//
//repro:deterministic
//repro:timing
func Fig8(cfg Config) error {
	seed := cfg.seed()
	n := scalePick(cfg.Scale, int64(1<<13), int64(1<<16))
	ranks := scalePick(cfg.Scale, 8, 16)
	hcSources := scalePick(cfg.Scale, 4, 16)
	g := gen.ChungLu(n, n*8, 2.1, seed)
	shared, err := g.Build()
	if err != nil {
		return fmt.Errorf("fig8: %w", err)
	}

	// Partitioning strategies mapping vertices to the `ranks` nodes.
	strategies := []struct {
		name  string
		parts []int32
	}{
		{"EdgeBlock", partition.EdgeBlock(shared, ranks)},
		{"Random", partition.Random(shared, ranks, seed)},
		{"VertexBlock", partition.VertexBlock(shared, ranks)},
	}
	xstart := time.Now()
	xparts, _, err := repro.XtraPuLPGen(g, repro.Config{
		Parts: ranks, Ranks: ranks, RandomDist: true, Seed: seed,
		Init: core.InitBlock, // block initialization, per §V.E
	})
	if err != nil {
		return fmt.Errorf("fig8: xtrapulp: %w", err)
	}
	xtime := time.Since(xstart)
	strategies = append(strategies, struct {
		name  string
		parts []int32
	}{"XtraPuLP", xparts})

	t := newTable(cfg.W, "Strategy", "HC(s)", "KC(s)", "LP(s)", "PR(s)", "SCC(s)", "WCC(s)", "Total(s)", "PartTime(s)")
	for _, st := range strategies {
		var results []analytics.Result
		mpi.Run(ranks, func(c *mpi.Comm) {
			dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
				dgraph.PartsDist{Parts: st.parts})
			if err != nil {
				panic(err)
			}
			res := analytics.RunAll(dg, hcSources)
			dg.Close()
			if c.Rank() == 0 {
				results = res
			}
		})
		var total time.Duration
		cells := []string{st.name}
		for _, r := range results {
			cells = append(cells, secs(r.Time))
			total += r.Time
		}
		ptime := "-"
		if st.name == "XtraPuLP" {
			ptime = secs(xtime)
			total += xtime
		}
		cells = append(cells, secs(total), ptime)
		t.add(cells...)
	}
	t.flush()
	return nil
}

// Table3 reproduces the SpMV study: time for repeated SpMV operations
// under 1D and 2D layouts derived from Block, Random, METIS-like, and
// XtraPuLP partitions, over representative graphs and rank counts,
// with the speedup of 2D-XtraPuLP over 1D-Random.
//
//repro:deterministic
func Table3(cfg Config) error {
	seed := cfg.seed()
	iters := scalePick(cfg.Scale, 20, 100)
	rankCounts := scalePick(cfg.Scale, []int{4, 8}, []int{16, 64})
	picks := map[string]bool{
		"lj-proxy": true, "orkut-proxy": true, "rmat-proxy": true, "nlpkkt-proxy": true,
	}
	t := newTable(cfg.W, "Graph", "Ranks", "Layout", "Partition", "Time(s)", "Volume")
	for _, tg := range corpus(cfg.Scale, seed) {
		if !picks[tg.name] {
			continue
		}
		g, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("table3: %s: %w", tg.name, err)
		}
		for _, ranks := range rankCounts {
			// Partitions with p = ranks.
			mopt := multilevel.MetisLike(ranks)
			mopt.Seed = seed
			mparts, _, err := multilevel.Partition(g, mopt)
			if err != nil {
				return fmt.Errorf("table3: %s metis: %w", tg.name, err)
			}
			xparts, _, err := repro.XtraPuLPGen(tg.gen, repro.Config{
				Parts: ranks, Ranks: ranks, RandomDist: true, Seed: seed,
			})
			if err != nil {
				return fmt.Errorf("table3: %s xtrapulp: %w", tg.name, err)
			}
			partitions := []struct {
				name  string
				parts []int32
			}{
				{"Block", partition.VertexBlock(g, ranks)},
				{"Random", partition.Random(g, ranks, seed)},
				{"METIS-like", mparts},
				{"XtraPuLP", xparts},
			}
			var rand1D, x2D float64
			for _, layout := range []spmv.Layout{spmv.OneD, spmv.TwoD} {
				for _, pt := range partitions {
					var res spmv.Result
					var volume int64
					mpi.Run(ranks, func(c *mpi.Comm) {
						r, err := spmv.Run(c, g, pt.parts, spmv.Options{Layout: layout, Iterations: iters})
						if err != nil {
							panic(err)
						}
						v := mpi.AllreduceScalar(c, r.CommVolume, mpi.Sum)
						if c.Rank() == 0 {
							res, volume = r, v
						}
					})
					t.add(tg.name, fmt.Sprintf("%d", ranks), layout.String(), pt.name,
						secs(res.Time), fmt.Sprintf("%d", volume))
					if layout == spmv.OneD && pt.name == "Random" {
						rand1D = res.Time.Seconds()
					}
					if layout == spmv.TwoD && pt.name == "XtraPuLP" {
						x2D = res.Time.Seconds()
					}
				}
			}
			if x2D > 0 {
				t.add(tg.name, fmt.Sprintf("%d", ranks), "--", "2D-XtraPuLP vs 1D-Random",
					fmt.Sprintf("%.2fx", rand1D/x2D), "")
			}
		}
	}
	t.flush()
	return nil
}
