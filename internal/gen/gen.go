// Package gen provides deterministic synthetic graph generators for all
// graph classes in the paper's evaluation (Table I and the Blue Waters
// scaling studies): R-MAT, Erdős–Rényi (RandER), the paper's
// high-diameter random construction (RandHD), regular 3D meshes
// (InternalMesh / nlpkkt stand-ins), Watts–Strogatz small-world rings,
// and Chung–Lu power-law graphs (social network / web crawl proxies).
//
// Every generator is seeded and organized in fixed-size blocks of
// independent PRNG streams. A block's contents depend only on
// (seed, block index), so the edge set is identical no matter how many
// ranks generate it or how blocks are assigned to ranks — distributed
// construction is reproducible and union-equivalent to serial
// construction by design.
package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// blockSize is the number of generation units (edges or vertices,
// depending on the generator family) per independent PRNG block.
const blockSize = 1 << 13

// Generator lazily produces a seeded synthetic graph. It can emit the
// whole edge list or a per-rank chunk for distributed construction.
type Generator struct {
	// Name identifies the generator instance in reports ("rmat_18").
	Name string
	// N is the vertex count.
	N int64
	// M is the exact number of generated (undirected) edges.
	M int64
	// blocks is the number of generation blocks covering M edges.
	blocks int64
	// blockEdges bounds the edges one block emits, so a chunk's edge
	// array is allocated once.
	blockEdges int64
	// genBlock appends block b's edges to out.
	genBlock func(b int64, out []graph.Edge) []graph.Edge
}

// NumBlocks returns the generator's block count (exported for tests).
func (g *Generator) NumBlocks() int64 { return g.blocks }

// EdgesChunk returns the edges of the blocks owned by rank out of
// nranks. Blocks are dealt in contiguous runs, so chunk sizes differ by
// at most one block. The union of all ranks' chunks equals Edges().
func (g *Generator) EdgesChunk(rank, nranks int) []graph.Edge {
	if nranks <= 0 || rank < 0 || rank >= nranks {
		panic(fmt.Sprintf("gen: bad chunk request rank=%d nranks=%d", rank, nranks))
	}
	lo := g.blocks * int64(rank) / int64(nranks)
	hi := g.blocks * int64(rank+1) / int64(nranks)
	est := (hi - lo) * g.blockEdges
	if est > g.M {
		est = g.M
	}
	out := make([]graph.Edge, 0, est)
	for b := lo; b < hi; b++ {
		out = g.genBlock(b, out)
	}
	return out
}

// Edges returns the full edge list.
func (g *Generator) Edges() []graph.Edge {
	return g.EdgesChunk(0, 1)
}

// Build materializes the full undirected graph in shared memory.
func (g *Generator) Build() (*graph.Graph, error) {
	return graph.FromEdges(g.N, g.Edges())
}

// MustBuild is Build that panics on error, for examples and tests where
// generator parameters are static.
func (g *Generator) MustBuild() *graph.Graph {
	gr, err := g.Build()
	if err != nil {
		panic(err)
	}
	return gr
}

// numBlocksFor returns how many fixed-size blocks cover count units.
func numBlocksFor(count int64) int64 {
	if count <= 0 {
		return 0
	}
	return (count + blockSize - 1) / blockSize
}

// blockBounds returns the unit range [lo, hi) covered by block b.
func blockBounds(b, count int64) (lo, hi int64) {
	lo = b * blockSize
	hi = lo + blockSize
	if hi > count {
		hi = count
	}
	return lo, hi
}

// RMAT returns a recursive-matrix (R-MAT) generator with the Graph500
// parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05). n = 2^scale
// vertices and m = n * avgDeg / 2 edges, matching the paper's
// "rmat_<scale>" instances with davg 16.
func RMAT(scale int, avgDeg int64, seed uint64) *Generator {
	n := int64(1) << uint(scale)
	m := n * avgDeg / 2
	const a, b, c = 0.57, 0.19, 0.19
	gen := &Generator{
		Name:       fmt.Sprintf("rmat_%d", scale),
		N:          n,
		M:          m,
		blocks:     numBlocksFor(m),
		blockEdges: blockSize,
	}
	// Each level draws k = Uint64()>>11, the 53 bits behind Float64() =
	// k/2^53, and compares it with integer thresholds: Float64() < t
	// exactly when k < ceil(t·2^53). k passes 0, 1, 2 or 3 of the
	// quadrant bounds a, a+b, a+b+c; u's bit is set past a+b, and v's
	// where an odd number is passed (quadrants b and d), all without a
	// branch.
	t1, t2, t3 := rmatThreshold(a), rmatThreshold(a+b), rmatThreshold(a+b+c)
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		r := rng.NewStream(seed, uint64(blk))
		lo, hi := blockBounds(blk, m)
		for i := lo; i < hi; i++ {
			var u, v uint64
			for bit := 0; bit < scale; bit++ {
				k := r.Uint64() >> 11
				past2 := passes(k, t2)
				u |= past2 << uint(bit)
				v |= (passes(k, t1) ^ past2 ^ passes(k, t3)) << uint(bit)
			}
			out = append(out, graph.Edge{U: int64(u), V: int64(v)})
		}
		return out
	}
	return gen
}

// rmatThreshold returns ceil(t·2^53) for a probability t in (0, 1]: the
// k in [0, 2^53) with k/2^53 < t are exactly those below it. t·2^53 only
// rescales t's exponent, so the product and its ceiling are exact.
func rmatThreshold(t float64) uint64 {
	return uint64(math.Ceil(t * (1 << 53)))
}

// passes returns 1 when k ≥ t and 0 otherwise, for k < 2^53 and
// 1 ≤ t ≤ 2^53: t−1−k wraps to a value with the top bit set exactly when
// k ≥ t.
func passes(k, t uint64) uint64 {
	return (t - 1 - k) >> 63
}

// ER returns an Erdős–Rényi G(n, m) generator (the paper's RandER):
// m edges with both endpoints uniform over [0, n).
func ER(n, m int64, seed uint64) *Generator {
	gen := &Generator{
		Name:       fmt.Sprintf("rander_n%d_m%d", n, m),
		N:          n,
		M:          m,
		blocks:     numBlocksFor(m),
		blockEdges: blockSize,
	}
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		r := rng.NewStream(seed, uint64(blk))
		lo, hi := blockBounds(blk, m)
		for i := lo; i < hi; i++ {
			out = append(out, graph.Edge{U: r.Int64n(n), V: r.Int64n(n)})
		}
		return out
	}
	return gen
}

// ERAvgDeg returns an Erdős–Rényi generator sized for average degree
// avgDeg: m = n * avgDeg / 2.
func ERAvgDeg(n, avgDeg int64, seed uint64) *Generator {
	return ER(n, n*avgDeg/2, seed)
}

// RandHD returns the paper's high-diameter random graph (§IV): for each
// vertex k, add davg/2 edges connecting it to vertices chosen uniformly
// from the window (k-davg, k+davg), giving average degree ≈ davg while
// preserving a long, narrow structure with high diameter. Window
// positions wrap modulo n so boundary vertices keep full degree.
func RandHD(n, davg int64, seed uint64) *Generator {
	perVertex := davg / 2
	if perVertex < 1 {
		perVertex = 1
	}
	m := n * perVertex
	gen := &Generator{
		Name:       fmt.Sprintf("randhd_n%d_d%d", n, davg),
		N:          n,
		M:          m,
		blocks:     numBlocksFor(n), // vertex-indexed blocks
		blockEdges: blockSize * perVertex,
	}
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		r := rng.NewStream(seed, uint64(blk))
		lo, hi := blockBounds(blk, n)
		window := 2*davg - 1 // size of (k-davg, k+davg) excluding both ends
		if window < 1 {
			window = 1
		}
		for k := lo; k < hi; k++ {
			for j := int64(0); j < perVertex; j++ {
				off := r.Int64n(window) - (davg - 1) // in [-(davg-1), davg-1]
				t := ((k+off)%n + n) % n
				out = append(out, graph.Edge{U: k, V: t})
			}
		}
		return out
	}
	return gen
}

// Grid3D returns a regular nx×ny×nz mesh with a 7-point (6-neighbor)
// stencil, the stand-in for the paper's InternalMesh and nlpkkt regular
// graphs: low constant degree, tiny max degree, high diameter.
func Grid3D(nx, ny, nz int64) *Generator {
	n := nx * ny * nz
	// Forward edges only (each interior vertex emits +x, +y, +z).
	m := (nx-1)*ny*nz + nx*(ny-1)*nz + nx*ny*(nz-1)
	gen := &Generator{
		Name:       fmt.Sprintf("mesh_%dx%dx%d", nx, ny, nz),
		N:          n,
		M:          m,
		blocks:     numBlocksFor(n),
		blockEdges: blockSize * 3, // at most +x, +y, +z per vertex
	}
	idx := func(x, y, z int64) int64 { return (z*ny+y)*nx + x }
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		lo, hi := blockBounds(blk, n)
		for v := lo; v < hi; v++ {
			x := v % nx
			y := (v / nx) % ny
			z := v / (nx * ny)
			if x+1 < nx {
				out = append(out, graph.Edge{U: v, V: idx(x+1, y, z)})
			}
			if y+1 < ny {
				out = append(out, graph.Edge{U: v, V: idx(x, y+1, z)})
			}
			if z+1 < nz {
				out = append(out, graph.Edge{U: v, V: idx(x, y, z+1)})
			}
		}
		return out
	}
	return gen
}

// WattsStrogatz returns a small-world ring: each vertex connects to its
// k/2 clockwise neighbors, and each such edge's far endpoint is rewired
// to a uniform random vertex with probability beta.
func WattsStrogatz(n, k int64, beta float64, seed uint64) *Generator {
	half := k / 2
	if half < 1 {
		half = 1
	}
	m := n * half
	gen := &Generator{
		Name:       fmt.Sprintf("ws_n%d_k%d", n, k),
		N:          n,
		M:          m,
		blocks:     numBlocksFor(n),
		blockEdges: blockSize * half,
	}
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		r := rng.NewStream(seed, uint64(blk))
		lo, hi := blockBounds(blk, n)
		for v := lo; v < hi; v++ {
			for j := int64(1); j <= half; j++ {
				t := (v + j) % n
				if r.Float64() < beta {
					t = r.Int64n(n)
				}
				out = append(out, graph.Edge{U: v, V: t})
			}
		}
		return out
	}
	return gen
}

// ChungLu returns a power-law random graph: endpoint probabilities are
// proportional to weights w_i = (i+1)^(-1/(gamma-1)), producing degree
// distributions with exponent ≈ gamma. It is the proxy for the paper's
// online social networks (gamma ≈ 2.2, high skew) and web crawls
// (gamma ≈ 1.9–2.1 with very large hubs).
func ChungLu(n, m int64, gamma float64, seed uint64) *Generator {
	// Cumulative weight table for inverse-CDF endpoint sampling. The
	// table is rebuilt lazily per block, but it is shared: build once.
	cum := make([]float64, n+1)
	alpha := 1.0 / (gamma - 1.0)
	for i := int64(0); i < n; i++ {
		w := math.Pow(float64(i+1), -alpha)
		cum[i+1] = cum[i] + w
	}
	total := cum[n]
	sample := func(r *rng.Rand) int64 {
		x := r.Float64() * total
		// binary search for first cum[i+1] > x
		lo, hi := int64(0), n
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	gen := &Generator{
		Name:       fmt.Sprintf("chunglu_n%d_m%d", n, m),
		N:          n,
		M:          m,
		blocks:     numBlocksFor(m),
		blockEdges: blockSize,
	}
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		r := rng.NewStream(seed, uint64(blk))
		lo, hi := blockBounds(blk, m)
		for i := lo; i < hi; i++ {
			out = append(out, graph.Edge{U: sample(r), V: sample(r)})
		}
		return out
	}
	return gen
}

// FromEdgeList wraps a static in-memory edge list as a Generator so it
// can flow through the same chunked distributed-construction path as
// the synthetic families. Chunks are contiguous block ranges of the
// list.
func FromEdgeList(name string, n int64, edges []graph.Edge) *Generator {
	m := int64(len(edges))
	gen := &Generator{
		Name:       name,
		N:          n,
		M:          m,
		blocks:     numBlocksFor(m),
		blockEdges: blockSize,
	}
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		lo, hi := blockBounds(blk, m)
		return append(out, edges[lo:hi]...)
	}
	return gen
}

// PrefAttach returns a Barabási–Albert-style preferential-attachment
// generator: vertices arrive in id order and each new vertex k ≥ m0
// attaches m0 edges to earlier vertices, choosing endpoints of earlier
// edges uniformly (which is attachment proportional to current
// degree). It produces power-law degrees with strong old-vertex hubs,
// complementing Chung–Lu as a social-network proxy. Generation is
// inherently sequential, so this family is emitted as a single block
// and is intended for shared-memory baselines and tests.
func PrefAttach(n, m0 int64, seed uint64) *Generator {
	if m0 < 1 {
		m0 = 1
	}
	gen := &Generator{
		Name:   fmt.Sprintf("ba_n%d_m%d", n, m0),
		N:      n,
		M:      0,
		blocks: 1,
	}
	var m int64
	if n > m0 {
		m = (n-m0)*m0 + (m0 - 1) // arrivals + seed path
	} else if n > 1 {
		m = n - 1
	}
	gen.M, gen.blockEdges = m, m
	gen.genBlock = func(blk int64, out []graph.Edge) []graph.Edge {
		r := rng.NewStream(seed, 0)
		// endpoints records every edge endpoint; sampling from it is
		// degree-proportional attachment.
		endpoints := make([]int64, 0, 2*m)
		// Seed core: a path over the first m0 vertices keeps the graph
		// connected and puts every early vertex into the pool.
		seedTop := m0
		if n < seedTop {
			seedTop = n
		}
		for k := int64(1); k < seedTop; k++ {
			out = append(out, graph.Edge{U: k - 1, V: k})
			endpoints = append(endpoints, k-1, k)
		}
		for k := m0; k < n; k++ {
			for j := int64(0); j < m0; j++ {
				// Resample while the draw lands on k itself (its own
				// endpoints enter the pool as soon as its first edge is
				// placed); self loops would silently shrink M.
				var t int64 = k
				for t == k {
					if len(endpoints) == 0 {
						t = r.Int64n(k)
					} else {
						t = endpoints[r.Intn(len(endpoints))]
					}
				}
				out = append(out, graph.Edge{U: k, V: t})
				endpoints = append(endpoints, k, t)
			}
		}
		return out
	}
	return gen
}
