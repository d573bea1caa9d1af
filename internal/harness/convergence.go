package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// Convergence prints the per-iteration trajectory of one XtraPuLP run
// — the damping multiplier, the largest part's vertex/edge/cut load,
// and the global move count — making the §III.C balance dynamics
// (early overshoot, progressive tightening) directly observable.
// It supplements the paper's aggregate Fig. 7 view.
//
//repro:deterministic
func Convergence(cfg Config) error {
	seed := cfg.seed()
	n := scalePick(cfg.Scale, int64(1<<13), int64(1<<16))
	ranks := scalePick(cfg.Scale, 4, 8)
	parts := scalePick(cfg.Scale, 16, 64)
	g := gen.ChungLu(n, n*8, 2.2, seed)

	t := newTable(cfg.W, "Stage", "Iter", "Mult", "MaxVerts", "MaxEdges", "MaxCut", "Moved")
	idealV := float64(g.N) / float64(parts)
	var events []core.TraceEvent
	mpi.Run(ranks, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: seed})
		if err != nil {
			panic(err)
		}
		opt := core.DefaultOptions(parts)
		opt.Seed = seed
		// The callback fires on rank 0 only (see core.Options.Trace).
		opt.Trace = func(ev core.TraceEvent) { events = append(events, ev) }
		if _, _, err := core.Partition(dg, opt); err != nil {
			panic(err)
		}
		dg.Close()
	})
	for _, ev := range events {
		t.add(ev.Stage, fmt.Sprintf("%d", ev.Iter), fmt.Sprintf("%.2f", ev.Mult),
			fmt.Sprintf("%d (%.2fx)", ev.MaxVerts, float64(ev.MaxVerts)/idealV),
			fmt.Sprintf("%d", ev.MaxEdges), fmt.Sprintf("%d", ev.MaxCut),
			fmt.Sprintf("%d", ev.Moved))
	}
	t.flush()
	return nil
}
