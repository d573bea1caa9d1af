package dgraph

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

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

// valueRound ships vals[lids] owner → ghost over one split-phase delta
// round and applies the received payloads into vals — the async
// counterpart of Graph.ExchangeInt64.
func valueRound(ex *DeltaExchanger, lids []int32, vals []int64) {
	payloads := make([]int64, len(lids))
	for i, lid := range lids {
		payloads[i] = vals[lid]
	}
	ex.BeginValues(lids, payloads, nil)
	outL, outP, _ := ex.FlushValues()
	for i, lid := range outL {
		vals[lid] = outP[i]
	}
}

// The delta value flows must deliver exactly what the synchronous
// Alltoallv helpers deliver, for both the owner → ghost direction
// (BeginValues vs ExchangeInt64) and the ghost → owner direction
// (BeginPush vs PushToOwners).
func TestValueFlowsMatchSyncTransport(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		ex := dg.AsyncExchanger()

		// Owner → ghost: a sparse subset of owned vertices.
		var lids []int32
		base := make([]int64, dg.NTotal())
		for i := range base {
			base[i] = -7
		}
		for v := 0; v < dg.NLocal; v++ {
			if v%3 != 0 {
				lids = append(lids, int32(v))
				base[v] = dg.L2G[v] * 31 % 1000
			}
		}
		syncVals := append([]int64(nil), base...)
		dg.ExchangeInt64(lids, syncVals)
		asyncVals := append([]int64(nil), base...)
		valueRound(ex, lids, asyncVals)
		for i := range syncVals {
			if syncVals[i] != asyncVals[i] {
				t.Errorf("rank %d: BeginValues diverges from ExchangeInt64 at lid %d: sync %d async %d",
					c.Rank(), i, syncVals[i], asyncVals[i])
				return
			}
		}

		// Ghost → owner: a subset of ghosts with synthetic payloads.
		var ghosts []int32
		var payloads []int64
		for i := 0; i < dg.NGhost; i++ {
			if i%2 == 0 {
				lid := int32(dg.NLocal + i)
				ghosts = append(ghosts, lid)
				payloads = append(payloads, dg.L2G[lid]*13%997)
			}
		}
		sL, sP := dg.PushToOwners(ghosts, payloads)
		ex.BeginPush(ghosts, payloads, nil)
		aL, aP, _ := ex.FlushPush()
		sp, ap := pairSet(sL, sP), pairSet(aL, aP)
		if len(sp) != len(ap) {
			t.Errorf("rank %d: BeginPush delivered %d pairs, PushToOwners %d", c.Rank(), len(ap), len(sp))
			return
		}
		for i := range sp {
			if sp[i] != ap[i] {
				t.Errorf("rank %d: pushed pair %d: PushToOwners %v BeginPush %v", c.Rank(), i, sp[i], ap[i])
				return
			}
		}
	})
}

// Float payloads must cross a delta value round bit-exactly, matching
// ExchangeFloat64.
func TestValueFlowFloat64BitExact(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 2})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		bv := dg.BoundaryVertices()
		mk := func() []float64 {
			vals := make([]float64, dg.NTotal())
			for v := 0; v < dg.NLocal; v++ {
				vals[v] = 1.0 / float64(dg.L2G[v]+3)
			}
			return vals
		}
		syncVals, asyncVals := mk(), mk()
		dg.ExchangeFloat64(bv, syncVals)
		payloads := make([]int64, len(bv))
		for i, v := range bv {
			payloads[i] = int64(math.Float64bits(asyncVals[v]))
		}
		ex := dg.AsyncExchanger()
		ex.BeginValues(bv, payloads, nil)
		outL, outP, _ := ex.FlushValues()
		for i, lid := range outL {
			asyncVals[lid] = math.Float64frombits(uint64(outP[i]))
		}
		for i := range syncVals {
			if syncVals[i] != asyncVals[i] {
				t.Errorf("rank %d: float payload diverges at lid %d: %v vs %v",
					c.Rank(), i, syncVals[i], asyncVals[i])
				return
			}
		}
	})
}

// Shipping the full boundary in lid order must trigger the dense
// encoding: one header plus one payload per shared-list entry, against
// the synchronous transport's two elements per (vertex, destination).
func TestValueFlowDenseEncodingVolume(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		bv := dg.BoundaryVertices()
		vals := make([]int64, dg.NTotal())
		for v := range vals {
			vals[v] = int64(v)
		}

		ex := dg.AsyncExchanger()
		c.ResetStats()
		dg.ExchangeInt64(bv, vals)
		syncSent := c.Stats().ElemsSent

		c.ResetStats()
		valueRound(ex, bv, vals)
		asyncSent := c.Stats().ElemsSent

		var want int64
		for _, r := range ex.NeighborRanks() {
			want += 1 + int64(len(ex.SharedSendGIDs(int(r))))
		}
		if asyncSent != want {
			t.Errorf("rank %d: dense value flow sent %d elements, want %d", c.Rank(), asyncSent, want)
		}
		if asyncSent >= syncSent {
			t.Errorf("rank %d: async value flow sent %d, sync %d", c.Rank(), asyncSent, syncSent)
		}
	})
}

// FlushTally must hand back the element-wise sum of every neighbor's
// tally — on a complete rank neighborhood, the sum over all peers.
func TestFlushTallySumsNeighborTallies(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	const ranks = 4
	mpi.Run(ranks, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		ex := dg.AsyncExchanger()
		if got := len(ex.NeighborRanks()); got != ranks-1 {
			t.Errorf("rank %d: %d neighbors, want complete (%d)", c.Rank(), got, ranks-1)
			return
		}
		me := int64(c.Rank())
		ex.BeginTally(3)
		_, sum := ex.FlushTally(nil, []int64{me, me * 10, 1})
		wantAll := int64(ranks * (ranks - 1) / 2) // 0+1+2+3 minus me
		want := [3]int64{wantAll - me, (wantAll - me) * 10, ranks - 1}
		if sum[0] != want[0] || sum[1] != want[1] || sum[2] != want[2] {
			t.Errorf("rank %d: tally sum %v, want %v", c.Rank(), sum, want)
		}
	})
}
