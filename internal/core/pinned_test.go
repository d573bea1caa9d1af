package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// partitionHash partitions g over nranks at one thread per rank and
// returns the FNV-64a hash of the global assignment (little-endian
// int32 labels in global-id order).
func partitionHash(t *testing.T, g *gen.Generator, nranks int, opt Options) uint64 {
	t.Helper()
	var sum uint64
	mpi.RunThreads(nranks, 1, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 42})
		if err != nil {
			t.Errorf("rank %d: build: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		parts, _, err := Partition(dg, opt)
		if err != nil {
			t.Errorf("rank %d: partition: %v", c.Rank(), err)
			return
		}
		full := dg.GatherGlobal(parts[:dg.NLocal])
		if c.Rank() == 0 {
			h := fnv.New64a()
			var b [4]byte
			for _, pt := range full {
				binary.LittleEndian.PutUint32(b[:], uint32(pt))
				h.Write(b[:])
			}
			sum = h.Sum64()
		}
	})
	return sum
}

// pinnedHashes are the partition hashes of the O(p) sweep kernels the
// touched-part kernels replaced, keyed "graph/p/ranks/mode". At one
// thread per rank the sweeps must reproduce them bit for bit: the
// touched-set argmax keeps the ascending-index tie rule and the
// fallback early-outs skip only scans that cannot succeed.
var pinnedHashes = map[string]uint64{
	"mesh16/2/1/sync":          0xdb5b10ce85f4e325,
	"mesh16/2/1/async-delta":   0xdb5b10ce85f4e325,
	"mesh16/2/2/sync":          0x62c39f9f742eb1e4,
	"mesh16/2/2/async-delta":   0x62c39f9f742eb1e4,
	"mesh16/2/3/sync":          0xfc58a12b037b4224,
	"mesh16/2/3/async-delta":   0xfc58a12b037b4224,
	"mesh16/16/1/sync":         0xee7632c3450bc0f6,
	"mesh16/16/1/async-delta":  0xee7632c3450bc0f6,
	"mesh16/16/2/sync":         0x82a52f56fb36cc74,
	"mesh16/16/2/async-delta":  0x82a52f56fb36cc74,
	"mesh16/16/3/sync":         0x179270d949526553,
	"mesh16/16/3/async-delta":  0x179270d949526553,
	"mesh16/64/1/sync":         0x58856d2851dd342f,
	"mesh16/64/1/async-delta":  0x58856d2851dd342f,
	"mesh16/64/2/sync":         0x8c39e27da323d05d,
	"mesh16/64/2/async-delta":  0x8c39e27da323d05d,
	"mesh16/64/3/sync":         0x630a866b3079fee2,
	"mesh16/64/3/async-delta":  0x630a866b3079fee2,
	"mesh16/65/1/sync":         0xcfab3c71a45f7743,
	"mesh16/65/1/async-delta":  0xcfab3c71a45f7743,
	"mesh16/65/2/sync":         0x1ca5d254c22cef4b,
	"mesh16/65/2/async-delta":  0x1ca5d254c22cef4b,
	"mesh16/65/3/sync":         0xd720636f5a6fac2b,
	"mesh16/65/3/async-delta":  0xd720636f5a6fac2b,
	"mesh16/256/1/sync":        0xfb59feb0ad1b5293,
	"mesh16/256/1/async-delta": 0xfb59feb0ad1b5293,
	"mesh16/256/2/sync":        0xf9304205dd40fda9,
	"mesh16/256/2/async-delta": 0xf9304205dd40fda9,
	"mesh16/256/3/sync":        0xc2d3b3bb85c38b74,
	"mesh16/256/3/async-delta": 0xc2d3b3bb85c38b74,
	"rmat12/2/1/sync":          0xe1126135e59dca4,
	"rmat12/2/1/async-delta":   0xe1126135e59dca4,
	"rmat12/2/2/sync":          0xb166e539cdb4b094,
	"rmat12/2/2/async-delta":   0xb166e539cdb4b094,
	"rmat12/2/3/sync":          0x72ba2f6f3f4ed584,
	"rmat12/2/3/async-delta":   0x72ba2f6f3f4ed584,
	"rmat12/16/1/sync":         0x19e411f22e5c4152,
	"rmat12/16/1/async-delta":  0x19e411f22e5c4152,
	"rmat12/16/2/sync":         0x2fbab9030bac3be2,
	"rmat12/16/2/async-delta":  0x2fbab9030bac3be2,
	"rmat12/16/3/sync":         0x831a14d918ec9247,
	"rmat12/16/3/async-delta":  0x831a14d918ec9247,
	"rmat12/64/1/sync":         0x58f4ec505aa8b32f,
	"rmat12/64/1/async-delta":  0x58f4ec505aa8b32f,
	"rmat12/64/2/sync":         0x3f2b3f50579b699d,
	"rmat12/64/2/async-delta":  0x3f2b3f50579b699d,
	"rmat12/64/3/sync":         0x366eee2cefdca83c,
	"rmat12/64/3/async-delta":  0x366eee2cefdca83c,
	"rmat12/65/1/sync":         0x264ba0e6eaace31,
	"rmat12/65/1/async-delta":  0x264ba0e6eaace31,
	"rmat12/65/2/sync":         0x852d92e8ae4aa960,
	"rmat12/65/2/async-delta":  0x852d92e8ae4aa960,
	"rmat12/65/3/sync":         0x80e2cf63f0394009,
	"rmat12/65/3/async-delta":  0x80e2cf63f0394009,
	"rmat12/256/1/sync":        0x71772da7f325352a,
	"rmat12/256/1/async-delta": 0x71772da7f325352a,
	"rmat12/256/2/sync":        0x6a932fd0b82c1e26,
	"rmat12/256/2/async-delta": 0x6a932fd0b82c1e26,
	"rmat12/256/3/sync":        0x1fec721cb2e51d65,
	"rmat12/256/3/async-delta": 0x1fec721cb2e51d65,
}

// TestPinnedPartitionHashes runs {mesh 16^3, RMAT 12} × p {2, 16, 64,
// 65, 256} × ranks {1, 2, 3} × {sync, async} at ThreadsPerRank 1 and
// compares each partition with its pinned hash. p=65 puts the last
// part in a second touched-mask word. -short keeps the mesh in sync
// mode.
func TestPinnedPartitionHashes(t *testing.T) {
	graphs := []struct {
		name string
		g    *gen.Generator
	}{
		{"mesh16", gen.Grid3D(16, 16, 16)},
		{"rmat12", gen.RMAT(12, 8, 5)},
	}
	modes := []ExchangeMode{ExchangeSync, ExchangeAsyncDelta}
	if testing.Short() {
		graphs, modes = graphs[:1], modes[:1]
	}
	for _, gr := range graphs {
		for _, p := range []int{2, 16, 64, 65, 256} {
			for _, ranks := range []int{1, 2, 3} {
				for _, mode := range modes {
					opt := DefaultOptions(p)
					opt.Exchange = mode
					key := fmt.Sprintf("%s/%d/%d/%v", gr.name, p, ranks, mode)
					got := partitionHash(t, gr.g, ranks, opt)
					if want, ok := pinnedHashes[key]; !ok || got != want {
						t.Errorf("%s: partition hash %#x, pinned %#x", key, got, want)
					}
				}
			}
		}
	}
}
