package dgraph

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// valueRound ships vals[lids] owner → ghost over one split-phase delta
// round and applies the received payloads into vals — what
// Graph.ExchangeInt64 does, spelled out on the exchanger.
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

// The delta value flows must deliver exactly what the serial oracle
// says, in both directions: owner → ghost (BeginValues, and
// ExchangeInt64 as its blocking form) leaves every ghost holding its
// owner's shipped value, and ghost → owner (BeginPush) delivers exactly
// the (owned lid, payload) pairs whose ghosts were pushed.
func TestValueFlowsMatchSerialOracle(t *testing.T) {
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
		var payloads []int64
		base := make([]int64, dg.NTotal())
		for i := range base {
			base[i] = -7
		}
		for v := 0; v < dg.NLocal; v++ {
			if v%3 != 0 {
				lids = append(lids, int32(v))
				base[v] = dg.L2G[v] * 31 % 1000
				payloads = append(payloads, base[v])
			}
		}
		want := oracleGhostValues(c, dg, lids, payloads)
		rounds := []struct {
			name string
			run  func([]int64)
		}{
			{"ExchangeInt64", func(vals []int64) { dg.ExchangeInt64(lids, vals) }},
			{"BeginValues", func(vals []int64) { valueRound(ex, lids, vals) }},
		}
		for _, r := range rounds {
			vals := append([]int64(nil), base...)
			r.run(vals)
			for lid := range vals {
				w, shipped := want[int32(lid)]
				if !shipped {
					w = base[lid]
				}
				if vals[lid] != w {
					t.Errorf("rank %d: %s left lid %d (gid %d) at %d, want %d",
						c.Rank(), r.name, lid, dg.L2G[lid], vals[lid], w)
					return
				}
			}
		}

		// Ghost → owner: a subset of ghosts with synthetic payloads.
		var ghosts []int32
		payloads = payloads[:0]
		for i := 0; i < dg.NGhost; i++ {
			if i%2 == 0 {
				lid := int32(dg.NLocal + i)
				ghosts = append(ghosts, lid)
				payloads = append(payloads, dg.L2G[lid]*13%997)
			}
		}
		wantPairs := oraclePushPairs(c, dg, ghosts, payloads)
		ex.BeginPush(ghosts, payloads, nil)
		aL, aP, _ := ex.FlushPush()
		got := pairSet(aL, aP)
		if len(got) != len(wantPairs) {
			t.Errorf("rank %d: BeginPush delivered %d pairs, oracle %d", c.Rank(), len(got), len(wantPairs))
			return
		}
		for i := range got {
			if got[i] != wantPairs[i] {
				t.Errorf("rank %d: pushed pair %d: got %v, oracle %v", c.Rank(), i, got[i], wantPairs[i])
				return
			}
		}
	})
}

// Float payloads must cross a delta value round bit-exactly: after the
// full boundary ships, every ghost holds its owner's value to the bit.
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
		value := func(lid int) float64 { return 1.0 / float64(dg.L2G[lid]+3) }
		vals := make([]float64, dg.NTotal())
		for v := 0; v < dg.NLocal; v++ {
			vals[v] = value(v)
		}
		payloads := make([]int64, len(bv))
		for i, v := range bv {
			payloads[i] = int64(math.Float64bits(vals[v]))
		}
		ex := dg.AsyncExchanger()
		ex.BeginValues(bv, payloads, nil)
		outL, outP, _ := ex.FlushValues()
		for i, lid := range outL {
			vals[lid] = math.Float64frombits(uint64(outP[i]))
		}
		// Every ghost neighbors an owned vertex here, so it is a
		// boundary vertex of its owner and was shipped.
		for lid := range vals {
			if math.Float64bits(vals[lid]) != math.Float64bits(value(lid)) {
				t.Errorf("rank %d: lid %d (gid %d) holds %v, want %v bit-exactly",
					c.Rank(), lid, dg.L2G[lid], vals[lid], value(lid))
				return
			}
		}
	})
}

// Shipping the full boundary in lid order must trigger the dense
// encoding: exactly one header plus one payload per shared-list entry
// of every neighbor, whether the round is split-phase or the blocking
// ExchangeInt64.
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
		var want int64
		for _, r := range ex.NeighborRanks() {
			want += 1 + int64(len(ex.SharedSendGIDs(int(r))))
		}
		if want == 0 {
			t.Errorf("rank %d: no boundary (graph too sparse for the test)", c.Rank())
			return
		}
		rounds := []struct {
			name string
			run  func()
		}{
			{"split-phase", func() { valueRound(ex, bv, vals) }},
			{"ExchangeInt64", func() { dg.ExchangeInt64(bv, vals) }},
		}
		for _, r := range rounds {
			c.ResetStats()
			r.run()
			if sent := c.Stats().ElemsSent; sent != want {
				t.Errorf("rank %d: %s dense value round sent %d elements, want %d", c.Rank(), r.name, sent, want)
			}
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
