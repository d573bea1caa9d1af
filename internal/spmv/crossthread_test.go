// Cross-thread determinism for the SpMV engine: the checksum (the
// global ∞-norm the last iteration divides by) must be bit-identical
// at every intra-rank thread count, in both exchange modes, under both
// layouts, on both rank substrates. The localMultiply row sweep accumulates
// per-row in CSR order inside each chunk and rows never straddle
// chunks, so the worker count cannot perturb a single IEEE operation —
// this test is the acceptance gate for that claim.
//
// External test package: the transport factories live in
// internal/mpitest, which imports the repro facade, which imports spmv
// — an in-package test would cycle.
package spmv_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/mpitest"
	"repro/internal/partition"
	"repro/internal/spmv"
)

func TestSpMVCrossThreadDeterminism(t *testing.T) {
	const ranks, iters = 4, 8
	g := gen.RMAT(9, 8, 11).MustBuild()
	parts := partition.VertexBlock(g, ranks)

	// run executes one world and returns rank 0's checksum (the Result
	// documents it as identical on every rank; rank symmetry is covered
	// by the engine's own tests).
	run := func(factory mpitest.Factory, threads int, layout spmv.Layout, async bool) float64 {
		var sum float64
		mpi.RunWorld(factory(t, ranks), threads, func(c *mpi.Comm) {
			res, err := spmv.Run(c, g, parts, spmv.Options{Layout: layout, Iterations: iters, Async: async})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			if c.Rank() == 0 {
				sum = res.Checksum
			}
		})
		return sum
	}

	threadCounts := mpitest.CrossThreadCounts(testing.Short())
	factories := map[string]mpitest.Factory{"proc": mpitest.ProcFactory, "socket": mpitest.UnixSocketFactory}
	for _, layout := range []spmv.Layout{spmv.OneD, spmv.TwoD} {
		// Serial synchronous proc run is the per-layout reference; the
		// layouts themselves may differ bitwise (different fill order).
		ref := run(mpitest.ProcFactory, 1, layout, false)
		for name, factory := range factories {
			for _, threads := range threadCounts {
				for _, async := range []bool{false, true} {
					if name == "proc" && threads == 1 && !async {
						continue // the reference itself
					}
					got := run(factory, threads, layout, async)
					if got != ref {
						t.Errorf("%v %s/threads=%d/async=%v: checksum %v, want bit-identical %v",
							layout, name, threads, async, got, ref)
					}
				}
			}
		}
	}
}
