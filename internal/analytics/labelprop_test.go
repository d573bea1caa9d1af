package analytics

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// mapPlurality is the count-table argmax plurality replaced: the label
// with the largest count, ties to the smallest label.
func mapPlurality(vals []int64) int64 {
	counts := make(map[int64]int, len(vals))
	for _, l := range vals {
		counts[l]++
	}
	best, bestN := int64(0), 0
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best
}

func TestPluralityMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	var inputs [][]int64
	for _, alpha := range []int64{1, 2, 7, 1_000_000} {
		lengths := []int{20_000}
		for n := 1; n <= 64; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int64N(alpha)
			}
			inputs = append(inputs, vals)
		}
	}
	// Forced ties: k labels, each exactly c times, shuffled; the
	// smallest must win wherever it sits.
	for _, k := range []int{2, 3, 8} {
		for _, c := range []int{1, 2, 5} {
			var vals []int64
			for j := range k {
				for range c {
					vals = append(vals, int64(1000-97*j))
				}
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			inputs = append(inputs, vals)
		}
	}
	// A tie between the first and the last run, with a shorter run
	// between them.
	inputs = append(inputs, []int64{9, 9, 5, 1, 1}, []int64{1, 1, 5, 9, 9})
	// Already-sorted and reverse-sorted input.
	for _, n := range []int{1, 7, 64, 20_000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int64N(int64(n/3 + 1))
		}
		slices.Sort(vals)
		inputs = append(inputs, vals, slices.Clone(vals))
		slices.Reverse(inputs[len(inputs)-1])
	}

	for i, vals := range inputs {
		want := mapPlurality(vals)
		if got := plurality(slices.Clone(vals)); got != want {
			t.Errorf("input %d (len %d): plurality = %d, map reference = %d", i, len(vals), got, want)
		}
	}

	vals := inputs[len(inputs)/2]
	scratch := make([]int64, len(vals))
	if avg := testing.AllocsPerRun(100, func() {
		copy(scratch, vals)
		plurality(scratch)
	}); avg != 0 {
		t.Errorf("plurality on a reused buffer: %.2f allocs per call, want 0", avg)
	}
}

// labelPropReference is serial Jacobi plurality LP over the shared
// graph: every vertex starts with its own id, each round every vertex
// with neighbours takes mapPlurality of their round-start labels, and
// the run stops after the first round that changes nothing or after
// iters rounds. It returns the labels, the rounds run and the number of
// distinct labels.
func labelPropReference(g *graph.Graph, iters int) ([]int64, int, int) {
	labels := make([]int64, g.N)
	for v := range labels {
		labels[v] = int64(v)
	}
	rounds := 0
	for rounds < iters {
		rounds++
		next := slices.Clone(labels)
		changed := false
		for v := range g.N {
			nbrs := g.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			nl := make([]int64, len(nbrs))
			for i, u := range nbrs {
				nl[i] = labels[u]
			}
			next[v] = mapPlurality(nl)
			changed = changed || next[v] != labels[v]
		}
		labels = next
		if !changed {
			break
		}
	}
	distinct := map[int64]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	return labels, rounds, len(distinct)
}

// TestLabelPropMatchesSerialReference ties LabelProp to the serial
// oracle. On one rank every vertex is interior, so a round is exactly
// one Jacobi sweep; labels, the round count and the community count
// must match in both exchange modes and with parallel sweeps.
func TestLabelPropMatchesSerialReference(t *testing.T) {
	cases := []struct {
		name  string
		g     *gen.Generator
		iters int
	}{
		{"rmat12", gen.RMAT(12, 16, 5), 10},
		{"chunglu", gen.ChungLu(1<<11, 1<<14, 2.2, 3), 50},
		{"grid12", gen.Grid3D(12, 12, 12), 50},
	}
	for _, tc := range cases {
		wantLabels, wantRounds, wantComms := labelPropReference(tc.g.MustBuild(), tc.iters)
		for _, threads := range []int{1, 3} {
			for _, async := range []bool{false, true} {
				mpi.RunThreads(1, threads, func(c *mpi.Comm) {
					dg, err := dgraph.FromEdgeChunks(c, tc.g.N, tc.g.EdgesChunk(0, 1), dgraph.HashDist{P: 1, Seed: 7})
					if err != nil {
						t.Error(err)
						return
					}
					defer dg.Close()
					dg.SetAsyncExchange(async)
					labels, res := LabelProp(dg, tc.iters)
					if res.Iterations != wantRounds || res.Value != float64(wantComms) {
						t.Errorf("%s threads=%d async=%v: %d rounds, %v communities; reference %d rounds, %d communities",
							tc.name, threads, async, res.Iterations, res.Value, wantRounds, wantComms)
					}
					for v, l := range labels {
						if gid := dg.L2G[v]; l != wantLabels[gid] {
							t.Errorf("%s threads=%d async=%v: label(gid %d) = %d, reference %d",
								tc.name, threads, async, gid, l, wantLabels[gid])
							return
						}
					}
				})
			}
		}
	}
}

// BenchmarkLabelProp times ten LP rounds (see benchAnalytic).
func BenchmarkLabelProp(b *testing.B) {
	benchAnalytic(b, func(dg *dgraph.Graph) { LabelProp(dg, 10) })
}
