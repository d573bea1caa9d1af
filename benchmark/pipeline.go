package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/mpi"
	"repro/internal/spmv"
)

// pipeline is one workload's set-up state: the generated inputs and,
// on the socket workload, the formed world. The program under test
// receives only these.
type pipeline struct {
	w    workload
	seed uint64
	gen  *repro.Generator
	g    *repro.Graph
	// ts is the socket world, nil on the in-process substrate.
	ts      []mpi.Transport
	sockDir string
}

// newPipeline constructs the generator, materializes the shared graph
// SpMV multiplies, and forms the socket world when the workload has
// one. Socket files live under scratch.
func newPipeline(w workload, sz size, seed uint64, scratch string) (*pipeline, error) {
	p := &pipeline{w: w, seed: seed, gen: w.generator(sz, seed)}
	g, err := p.gen.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: build graph: %w", w.name, err)
	}
	p.g = g
	if !w.socket {
		return p, nil
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Errorf("%s: socket dir: %w", w.name, err)
	}
	// A relative directory keeps the socket paths under the 108-byte
	// sun_path limit however deep the checkout sits.
	p.sockDir, err = os.MkdirTemp(scratch, "sock")
	if err != nil {
		return nil, fmt.Errorf("%s: socket dir: %w", w.name, err)
	}
	addrs := make([]string, w.ranks)
	for r := range addrs {
		addrs[r] = filepath.Join(p.sockDir, fmt.Sprintf("r%d", r))
	}
	p.ts, err = mpi.NewSocketWorld("unix", addrs, 30*time.Second)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%s: %w", w.name, err), os.RemoveAll(p.sockDir))
	}
	return p, nil
}

// close tears the socket world down, waiting for its reader and writer
// goroutines, and removes the socket files.
func (p *pipeline) close() error {
	var first error
	for _, t := range p.ts {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	if p.sockDir != "" {
		if err := os.RemoveAll(p.sockDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// run executes fn on every rank of the workload's world with the given
// thread budget and reports a rank panic (a poisoned transport, a
// skewed round) as an error naming it.
func (p *pipeline) run(threads int, fn func(c *mpi.Comm)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rank panic: %v", r)
		}
	}()
	if p.ts != nil {
		mpi.RunWorld(p.ts, threads, fn)
	} else {
		mpi.RunThreads(p.w.ranks, threads, fn)
	}
	return nil
}

// partitionOut is one facade partition call as the caller sees it.
type partitionOut struct {
	parts   []int32
	rep     repro.Report
	wall    time.Duration
	allocMB float64
}

// partition times one facade partition call: distributed graph build,
// core.Partition and the gather. The clock is the driver's, so the
// slowest rank sets it.
func (p *pipeline) partition() (partitionOut, error) {
	var out partitionOut
	var stageErr error
	cfg := p.w.partitionConfig(p.seed)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := p.run(1, func(c *mpi.Comm) {
		parts, rep, err := repro.XtraPuLPComm(c, p.gen, cfg)
		if c.Rank() == 0 {
			out.parts, out.rep, stageErr = parts, rep, err
		}
	})
	out.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if err == nil {
		err = stageErr
	}
	return out, err
}

// placement maps the 16-way partition onto the world's ranks.
func (p *pipeline) placement(parts []int32) []int32 {
	out := make([]int32, len(parts))
	for v, pt := range parts {
		out[v] = pt * int32(p.w.ranks) / numParts
	}
	return out
}

// analytics times the six paper analytics distributed by placement.
// A non-nil recorder gets one span per rank under parent.
func (p *pipeline) analytics(placement []int32, rec *recorder, parent int) (repro.AnalyticsReport, time.Duration, error) {
	var out repro.AnalyticsReport
	var stageErr error
	cfg := p.w.analyticsConfig()
	start := time.Now()
	err := p.run(1, func(c *mpi.Comm) {
		rec.time("analytics.run", c.Rank(), parent, func() {
			rep, err := repro.RunAnalyticsComm(c, p.gen, placement, cfg)
			if c.Rank() == 0 {
				out, stageErr = rep, err
			}
		})
	})
	wall := time.Since(start)
	if err == nil {
		err = stageErr
	}
	return out, wall, err
}

// spmvOut is one SpMV run: rank 0's result plus the volume summed over
// ranks.
type spmvOut struct {
	res    spmv.Result
	volume int64
	wall   time.Duration
}

// spmv times 100 chained 1D multiplies distributed by placement. A
// non-nil recorder gets one span per rank under parent.
func (p *pipeline) spmv(placement []int32, rec *recorder, parent int) (spmvOut, error) {
	var out spmvOut
	var stageErr error
	opt := spmv.Options{Layout: spmv.OneD, Iterations: spmvIters, Async: p.w.async}
	vols := make([]int64, p.w.ranks)
	start := time.Now()
	err := p.run(p.w.spmvThreads, func(c *mpi.Comm) {
		rec.time("spmv.run", c.Rank(), parent, func() {
			res, err := spmv.Run(c, p.g, placement, opt)
			vols[c.Rank()] = res.CommVolume
			if c.Rank() == 0 {
				out.res, stageErr = res, err
			}
		})
	})
	out.wall = time.Since(start)
	for _, v := range vols {
		out.volume += v
	}
	if err == nil {
		err = stageErr
	}
	return out, err
}

// hashParts fingerprints a part assignment.
func hashParts(parts []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, pt := range parts {
		binary.LittleEndian.PutUint32(b[:], uint32(pt))
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashGraph fingerprints the generated CSR.
func hashGraph(g *repro.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range [][]int64{g.Offsets, g.Adj} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
