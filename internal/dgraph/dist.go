// Package dgraph implements the distributed one-dimensional CSR graph
// representation of XtraPuLP (§III.A): each rank owns a subset of
// vertices and their incident edges, stores part labels for owned and
// ghost vertices, maps global identifiers to task-local ones, and
// exchanges boundary updates (Algorithm 3's communication step) over
// per-neighbor point-to-point rounds (DeltaExchanger).
package dgraph

import (
	"fmt"

	"repro/internal/rng"
)

// Distribution maps global vertex ids to owner ranks. Implementations
// must be pure functions of the id so that every rank computes the same
// owner without communication.
type Distribution interface {
	// Owner returns the rank owning global vertex gid.
	Owner(gid int64) int
	// Name identifies the distribution in reports.
	Name() string
}

// BlockDist assigns contiguous ranges of ⌈n/p⌉ vertices per rank — the
// paper's "block distribution". Vertex locality in the id space is
// preserved, which benefits crawls whose ids encode crawl order.
type BlockDist struct {
	N int64 // global vertex count
	P int   // rank count
}

// Owner implements Distribution. It is the exact inverse of Range:
// rank r owns [N*r/P, N*(r+1)/P), so the owner of gid is the smallest r
// with gid < N*(r+1)/P, i.e. ⌊(gid*P + P - 1) / N⌋.
func (d BlockDist) Owner(gid int64) int {
	if d.N == 0 {
		return 0
	}
	o := int((gid*int64(d.P) + int64(d.P) - 1) / d.N)
	if o >= d.P {
		o = d.P - 1
	}
	return o
}

// Name implements Distribution.
func (d BlockDist) Name() string { return "block" }

// Range returns the owned gid interval [lo, hi) of the given rank.
func (d BlockDist) Range(rank int) (lo, hi int64) {
	lo = d.N * int64(rank) / int64(d.P)
	hi = d.N * int64(rank+1) / int64(d.P)
	return lo, hi
}

// HashDist assigns vertices to ranks pseudo-randomly by hashing ids —
// the paper's "random distribution", observed to be more scalable for
// irregular networks because it spreads hubs across ranks.
type HashDist struct {
	P    int
	Seed uint64
}

// Owner implements Distribution.
func (d HashDist) Owner(gid int64) int {
	return int(rng.Mix(uint64(gid)^d.Seed) % uint64(d.P))
}

// Name implements Distribution.
func (d HashDist) Name() string { return "random" }

// ownedList enumerates the gids owned by rank under dist over [0, n),
// in increasing order.
func ownedList(dist Distribution, n int64, rank int) []int64 {
	if b, ok := dist.(BlockDist); ok {
		lo, hi := b.Range(rank)
		out := make([]int64, hi-lo)
		for i := range out {
			out[i] = lo + int64(i)
		}
		return out
	}
	var out []int64
	for gid := int64(0); gid < n; gid++ {
		if dist.Owner(gid) == rank {
			out = append(out, gid)
		}
	}
	return out
}

// validateDistribution sanity checks a distribution against a world
// size, returning an error usable by builders.
func validateDistribution(dist Distribution, nranks int, n int64) error {
	probe := []int64{0, n / 2, n - 1}
	for _, gid := range probe {
		if gid < 0 || n == 0 {
			continue
		}
		if o := dist.Owner(gid); o < 0 || o >= nranks {
			return fmt.Errorf("dgraph: distribution %s maps gid %d to rank %d outside [0,%d)",
				dist.Name(), gid, o, nranks)
		}
	}
	return nil
}

// PartsDist distributes vertices according to a precomputed partition:
// vertex gid lives on rank Parts[gid]. This is how a partitioner's
// output is consumed downstream — analytics and SpMV place data by the
// computed parts (the paper's Fig. 8 and Table III setups). The part
// count must equal the world size.
type PartsDist struct {
	Parts []int32
}

// Owner implements Distribution.
func (d PartsDist) Owner(gid int64) int { return int(d.Parts[gid]) }

// Name implements Distribution.
func (d PartsDist) Name() string { return "parts" }
