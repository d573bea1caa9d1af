package harness

import (
	"repro/internal/gen"
)

// testGraph is a named proxy instance standing in for one of the
// paper's Table I inputs (corpus records which paper graphs each proxy
// substitutes for).
type testGraph struct {
	name  string
	class string // social | crawl | rmat | mesh
	gen   *gen.Generator
}

// corpus returns the proxy suite for a scale. Names reference the
// paper graphs each one substitutes for.
func corpus(scale Scale, seed uint64) []testGraph {
	var n int64 = 1 << 12
	if scale == Full {
		n = 1 << 15
	}
	return []testGraph{
		// Online social networks (lj, orkut): heavy-tailed Chung–Lu.
		{name: "lj-proxy", class: "social", gen: gen.ChungLu(n, n*8, 2.3, seed)},
		{name: "orkut-proxy", class: "social", gen: gen.ChungLu(n, n*16, 2.4, seed+1)},
		// Web crawls (uk-2002, wdc12-host): hubbier power law.
		{name: "uk2002-proxy", class: "crawl", gen: gen.ChungLu(n, n*8, 2.0, seed+2)},
		{name: "wdc-proxy", class: "crawl", gen: gen.ChungLu(n*2, n*16, 2.1, seed+3)},
		// Synthetic R-MAT (rmat_22 .. rmat_28).
		{name: "rmat-proxy", class: "rmat", gen: gen.RMAT(log2(n), 16, seed+4)},
		// Regular meshes (InternalMeshX, nlpkktX).
		{name: "mesh-proxy", class: "mesh", gen: meshFor(n)},
		{name: "nlpkkt-proxy", class: "mesh", gen: meshFor(n * 2)},
	}
}

// representatives returns the six-graph subset used by the paper's
// Cluster-1 strong-scaling and quality studies (Figs. 3 and 4): lj,
// orkut, friendster(→wdc), wdc12-pay(→uk2002), rmat_24, nlpkkt240.
func representatives(scale Scale, seed uint64) []testGraph {
	all := corpus(scale, seed)
	pick := map[string]bool{
		"lj-proxy": true, "orkut-proxy": true, "wdc-proxy": true,
		"uk2002-proxy": true, "rmat-proxy": true, "nlpkkt-proxy": true,
	}
	out := make([]testGraph, 0, 6)
	for _, g := range all {
		if pick[g.name] {
			out = append(out, g)
		}
	}
	return out
}

// meshFor builds a roughly cubical 3D mesh with about n vertices.
func meshFor(n int64) *gen.Generator {
	side := int64(1)
	for side*side*side < n {
		side++
	}
	return gen.Grid3D(side, side, side)
}

// log2 returns ⌊log2 n⌋ for n ≥ 1.
func log2(n int64) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// scalePick returns small for Small scale, full otherwise.
func scalePick[T any](s Scale, small, full T) T {
	if s == Full {
		return full
	}
	return small
}
