package dgraph

import (
	"sort"

	"repro/internal/mpi"
)

// The exchange tests check the delta exchanger against a serial
// oracle built from L2G and LID: every rank's shipped (gid, payload)
// pairs are gathered world-wide, and what a rank must receive follows
// from its own id maps alone.

// oracleGhostValues is the reference for one owner → ghost round: every
// rank ships payloads[i] for its owned lids[i], and the result maps each
// of this rank's ghosts whose owner shipped a value to that value.
// Ghosts whose owner shipped nothing are absent.
func oracleGhostValues(c *mpi.Comm, dg *Graph, lids []int32, payloads []int64) map[int32]int64 {
	shipped := map[int64]int64{}
	for _, pairs := range mpi.Allgatherv(c, gidPairs(dg, lids, payloads)) {
		for i := 0; i+1 < len(pairs); i += 2 {
			shipped[pairs[i]] = pairs[i+1]
		}
	}
	want := map[int32]int64{}
	for lid := dg.NLocal; lid < dg.NTotal(); lid++ {
		if v, ok := shipped[dg.L2G[lid]]; ok {
			want[int32(lid)] = v
		}
	}
	return want
}

// oraclePushPairs is the reference for one ghost → owner round: every
// rank pushes payloads[i] for its ghost lids[i], and the result holds,
// sorted as pairSet sorts, exactly the (owned lid, payload) pairs whose
// ghosts were pushed anywhere.
func oraclePushPairs(c *mpi.Comm, dg *Graph, ghosts []int32, payloads []int64) [][2]int64 {
	var lids []int32
	var vals []int64
	for _, pairs := range mpi.Allgatherv(c, gidPairs(dg, ghosts, payloads)) {
		for i := 0; i+1 < len(pairs); i += 2 {
			if lid, ok := dg.LID(pairs[i]); ok && !dg.IsGhost(lid) {
				lids = append(lids, lid)
				vals = append(vals, pairs[i+1])
			}
		}
	}
	return pairSet(lids, vals)
}

// gidPairs flattens (L2G[lids[i]], payloads[i]) into one word slice.
func gidPairs(dg *Graph, lids []int32, payloads []int64) []int64 {
	out := make([]int64, 0, 2*len(lids))
	for i, lid := range lids {
		out = append(out, dg.L2G[lid], payloads[i])
	}
	return out
}

// pairSet collects (lid, payload) results order-insensitively.
func pairSet(lids []int32, vals []int64) [][2]int64 {
	out := make([][2]int64, len(lids))
	for i := range lids {
		out[i] = [2]int64{int64(lids[i]), vals[i]}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
