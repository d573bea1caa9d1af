// Benchmarks regenerating every table and figure of the paper (scaled
// workloads; the internal/harness package doc indexes the experiments)
// plus ablation benches for the design choices XtraPuLP introduces:
// the initialization strategy, the dynamic multiplier, and the vertex
// distribution.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"io"
	"testing"

	"repro"
	"repro/internal/harness"
)

// benchExperiment runs one harness experiment per iteration at Small
// scale with output discarded.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := harness.Config{W: io.Discard, Scale: harness.Small, Seed: 1}
		if err := harness.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table/figure in the paper's evaluation.

func BenchmarkTable1Stats(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkFig1StrongScaling(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2WeakScaling(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkTrillionEdgeRuns(b *testing.B)    { benchExperiment(b, "trillion") }
func BenchmarkTable2Partitioners(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig3Speedup(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig4Quality(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5QualityVsRanks(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6SingleObjective(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7MultiplierSweep(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8Analytics(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkTable3SpMV(b *testing.B)          { benchExperiment(b, "table3") }

// Core partitioner micro-benchmarks over the main graph classes.

func benchXtraPuLP(b *testing.B, g *repro.Generator, cfg repro.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.XtraPuLPGen(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXtraPuLPRMAT(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(14, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true})
}

func BenchmarkXtraPuLPRandER(b *testing.B) {
	benchXtraPuLP(b, repro.RandER(1<<14, 1<<17, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true})
}

func BenchmarkXtraPuLPRandHD(b *testing.B) {
	benchXtraPuLP(b, repro.RandHD(1<<14, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true})
}

func BenchmarkXtraPuLPMesh(b *testing.B) {
	benchXtraPuLP(b, repro.Mesh3D(25, 25, 25),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true})
}

// Sync-vs-async boundary exchange: the same partitioning runs with the
// asynchronous delta-only exchange, so the communication-path delta
// shows up directly against the BenchmarkXtraPuLP* baselines above.

func BenchmarkXtraPuLPRMATAsyncDelta(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(14, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, AsyncExchange: true})
}

func BenchmarkXtraPuLPRandERAsyncDelta(b *testing.B) {
	benchXtraPuLP(b, repro.RandER(1<<14, 1<<17, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, AsyncExchange: true})
}

func BenchmarkXtraPuLPMeshAsyncDelta(b *testing.B) {
	benchXtraPuLP(b, repro.Mesh3D(25, 25, 25),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, AsyncExchange: true})
}

// BenchmarkXtraPuLP8Ranks* compares full end-to-end partitioning runs
// (graph distribution, initialization, and all stages included) under
// each exchange mode at a higher rank count, where boundary traffic is
// a larger share of the work than in the 4-rank benches above.

func benchExchangeMode(b *testing.B, async bool) {
	b.Helper()
	g := repro.RMAT(13, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.XtraPuLPGen(g, repro.Config{
			Parts: 16, Ranks: 8, RandomDist: true, AsyncExchange: async,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXtraPuLP8RanksSync(b *testing.B)       { benchExchangeMode(b, false) }
func BenchmarkXtraPuLP8RanksAsyncDelta(b *testing.B) { benchExchangeMode(b, true) }

// Ablations: the design choices listed at the top of this file.

// BenchmarkAblationInitBFS/Random/Block compare the paper's hybrid
// initialization (§III.B) against the random and block alternatives.
func BenchmarkAblationInitBFS(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(13, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, Init: 0})
}

func BenchmarkAblationInitRandom(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(13, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, Init: 1})
}

func BenchmarkAblationInitBlock(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(13, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, Init: 2})
}

// BenchmarkAblationMultiplier* compare the default damping schedule
// (X=1, Y=0.25) against no damping (X=Y=0) and heavy damping (X=Y=4).
func BenchmarkAblationMultiplierDefault(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(13, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true})
}

func BenchmarkAblationMultiplierOff(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(13, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, OverrideXY: true})
}

func BenchmarkAblationMultiplierHeavy(b *testing.B) {
	benchXtraPuLP(b, repro.RMAT(13, 16, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true, X: 4, Y: 4})
}

// BenchmarkAblationDist* compare the random (hashed) vertex
// distribution the paper recommends for irregular graphs against the
// block distribution.
func BenchmarkAblationDistRandom(b *testing.B) {
	benchXtraPuLP(b, repro.PowerLaw(1<<13, 1<<16, 2.1, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: true})
}

func BenchmarkAblationDistBlock(b *testing.B) {
	benchXtraPuLP(b, repro.PowerLaw(1<<13, 1<<16, 2.1, 1),
		repro.Config{Parts: 16, Ranks: 4, RandomDist: false})
}

// Baseline partitioners on the same input for direct comparison.

func benchMethod(b *testing.B, method string) {
	b.Helper()
	g := repro.RMAT(14, 16, 1).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Partition(method, g, 16, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselinePuLP(b *testing.B)      { benchMethod(b, repro.MethodPuLP) }
func BenchmarkBaselineMetisLike(b *testing.B) { benchMethod(b, repro.MethodMetisLike) }
func BenchmarkBaselineKahipLike(b *testing.B) { benchMethod(b, repro.MethodKahipLike) }
func BenchmarkBaselineRandom(b *testing.B)    { benchMethod(b, repro.MethodRandom) }
