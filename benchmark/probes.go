package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/wire"
)

// Probes are microbenchmarks of single layers, run on the workload's
// own substrate and shard so a layer number and the end-to-end number
// it should move come from the same configuration.

const (
	probeRounds = 200     // delta exchange rounds per dgraph probe
	syncRounds  = 50      // bulk-synchronous rounds: 20 ms each on rmat17
	bigWords    = 1 << 16 // words per bandwidth-probe message
	smallWords  = 8       // words per latency-probe message
	reduceWords = 48      // the partitioner's per-iteration tally: 3 x 16 parts
	wireWords   = 1 << 12 // words per wire codec probe frame
)

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeDgraph times exchange rounds over the full boundary of the
// workload's partition-stage shard: one split-phase delta round and one
// bulk-synchronous round, plus the heap allocations of the former. It
// also returns rank 0's owned-vertex count for the par probes.
func (p *pipeline) probeDgraph() ([]metric, int, error) {
	var roundUS, syncUS, allocs float64
	var nLocal int
	var stageErr error
	err := p.run(1, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, p.gen.N, p.gen.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: p.seed})
		if err != nil {
			if c.Rank() == 0 {
				stageErr = err
			}
			return
		}
		dg.SetPipeDepth(pipeDepth)
		ex := dg.AsyncExchanger()
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		vals := make([]int64, dg.NTotal())
		round := func() {
			ex.BeginValues(bv, payload, nil)
			ex.FlushValues()
		}
		// Warm-up reaches the transport pool's in-flight high-water
		// mark before the measured window opens.
		for i := 0; i < 32; i++ {
			round()
		}
		samples := make([]float64, probeRounds)
		var m0, m1 runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.GC() // waits out finalizers the first cycle queued
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := range samples {
			start := time.Now()
			round()
			samples[i] = float64(time.Since(start))
		}
		c.Barrier()
		if c.Rank() == 0 {
			// Process-wide, so the window covers every rank.
			runtime.ReadMemStats(&m1)
		}
		c.Barrier()
		delta := median(samples)
		for i := 0; i < 8; i++ {
			dg.ExchangeInt64(bv, vals)
		}
		samples = samples[:syncRounds]
		for i := range samples {
			start := time.Now()
			dg.ExchangeInt64(bv, vals)
			samples[i] = float64(time.Since(start))
		}
		if c.Rank() == 0 {
			roundUS = micros(time.Duration(delta))
			syncUS = micros(time.Duration(median(samples)))
			allocs = float64(m1.Mallocs-m0.Mallocs) / probeRounds
			nLocal = dg.NLocal
		}
		dg.Close()
	})
	if err == nil {
		err = stageErr
	}
	if err != nil {
		return nil, 0, err
	}
	return []metric{
		scalar("dgraph.round_us", roundUS, "us"),
		scalar("dgraph.round_allocs", allocs, "count"),
		scalar("dgraph.exchange_sync_us", syncUS, "us"),
	}, nLocal, nil
}

// probeMPI times the communicator primitives on the workload's
// substrate. Rank 0 drives; rank 1, when there is one, echoes. On a
// one-rank world the point-to-point probes loop through rank 0's own
// mailbox.
func (p *pipeline) probeMPI() ([]metric, error) {
	const pings, bursts, perBurst = 1000, 7, 32
	var pingpong, p2p, allreduce, alltoallv, barrier time.Duration
	err := p.run(1, func(c *mpi.Comm) {
		rank, size := c.Rank(), c.Size()
		peer := (rank + 1) % size
		small := make([]int64, smallWords)
		big := make([]int64, bigWords)
		recvDrop := func(src int) { c.Recycle64(mpi.Recv64(c, src)) }

		var pp time.Duration
		switch rank {
		case 0:
			pp = medianDuration(pings, func() {
				mpi.Isend64(c, peer, small)
				recvDrop(peer)
			})
		case 1:
			for i := 0; i < pings; i++ {
				recvDrop(0)
				mpi.Isend64(c, 0, small)
			}
		}

		var bw time.Duration
		switch rank {
		case 0:
			bw = medianDuration(bursts, func() {
				for i := 0; i < perBurst; i++ {
					mpi.Isend64(c, peer, big)
					if size == 1 {
						recvDrop(0)
					}
				}
				if size > 1 {
					recvDrop(peer) // the burst's ack
				}
			})
		case 1:
			for b := 0; b < bursts; b++ {
				for i := 0; i < perBurst; i++ {
					recvDrop(0)
				}
				mpi.Isend64(c, 0, small[:1])
			}
		}

		tally := make([]int64, reduceWords)
		ar := medianDuration(300, func() { mpi.Allreduce(c, tally, mpi.Sum) })
		sendBuf := make([]int64, size*bigWords)
		counts := make([]int, size)
		for r := range counts {
			counts[r] = bigWords
		}
		a2a := medianDuration(21, func() { mpi.Alltoallv(c, sendBuf, counts) })
		bar := medianDuration(500, c.Barrier)
		if rank == 0 {
			pingpong, p2p, allreduce, alltoallv, barrier = pp, bw, ar, a2a, bar
		}
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		scalar("mpi.pingpong_us", micros(pingpong), "us"),
		scalar("mpi.p2p_mwords_s", perBurst*bigWords/p2p.Seconds()/1e6, "Mwords/s"),
		scalar("mpi.allreduce_us", micros(allreduce), "us"),
		scalar("mpi.alltoallv_mwords_s", float64(p.w.ranks*bigWords)/alltoallv.Seconds()/1e6, "Mwords/s"),
		scalar("mpi.barrier_us", micros(barrier), "us"),
	}, nil
}

// probeWire times the frame codec the socket transport runs on every
// message. It is pure CPU work and identical on every workload; it is
// reported per workload so each row carries its own budget.
func probeWire() []metric {
	payload := make([]int64, wireWords)
	for i := range payload {
		payload[i] = int64(uint64(i) * 0x9E3779B97F4A7C15 >> 8)
	}
	const reps = 400
	buf := make([]byte, 0, wire.FrameSize(wireWords))
	enc := medianDuration(reps, func() { buf = wire.AppendFrame(buf[:0], wire.KindData, 1, payload) })
	var decodeErr error
	dec := medianDuration(reps, func() {
		if _, _, _, _, err := wire.Decode(buf); err != nil {
			decodeErr = err
		}
	})
	smallBuf := make([]byte, 0, wire.FrameSize(smallWords))
	small := medianDuration(reps, func() {
		// One sample is 64 frames: a single 8-word frame is below the
		// clock's resolution.
		for i := 0; i < 64; i++ {
			smallBuf = wire.AppendFrame(smallBuf[:0], wire.KindData, 1, payload[:smallWords])
			if _, _, _, _, err := wire.Decode(smallBuf); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		panic(fmt.Sprintf("wire probe: codec rejected its own frame: %v", decodeErr))
	}
	return []metric{
		scalar("wire.encode_ns_word", float64(enc)/wireWords, "ns/word"),
		scalar("wire.decode_ns_word", float64(dec)/wireWords, "ns/word"),
		scalar("wire.small_frame_ns", float64(small)/64, "ns"),
		scalar("wire.frame_overhead_bytes", float64(wire.FrameSize(smallWords)-8*smallWords), "bytes"),
	}
}

// probePar times the sweep layer at the workload's thread count over
// as many rows as rank 0 owns.
func probePar(rows, threads int) []metric {
	x := make([]float64, rows)
	for i := range x {
		x[i] = float64(i%97) * 0.5
	}
	const reps = 101
	chunk := medianDuration(reps, func() {
		par.ForChunk(0, rows, threads, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				x[i] += 1
			}
		})
	})
	var partials []float64
	sum := func(t int) time.Duration {
		return medianDuration(reps, func() {
			_, partials = par.SumFloat64Ordered(0, rows, t, partials, func(lo, hi int) float64 {
				s := 0.0
				for _, v := range x[lo:hi] {
					s += v
				}
				return s
			})
		})
	}
	serial, threaded := sum(1), sum(threads)
	return []metric{
		scalar("par.for_chunk_us", micros(chunk), "us"),
		scalar("par.sum_ordered_mrows_s", float64(rows)/threaded.Seconds()/1e6, "Mrows/s"),
		scalar("par.speedup", serial.Seconds()/threaded.Seconds(), "ratio"),
	}
}
