package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/pulp"
)

// tracedPartition is one partition stage run as the body of
// repro.XtraPuLPComm with a span around each layer call, which the
// facade's single call cannot give from outside.
type tracedPartition struct {
	parts []int32
	rep   core.Report
	wall  time.Duration
	// Summed over ranks.
	stats                           mpi.Stats
	edges, nGhost, nLocal, boundary int64
}

func (p *pipeline) tracedPartition(rec *recorder, parent int) (tracedPartition, error) {
	var out tracedPartition
	var stageErr error
	opt := core.DefaultOptions(numParts)
	opt.Seed = p.seed
	if p.w.async {
		opt.Exchange = core.ExchangeAsyncDelta
	}
	per := make([]tracedPartition, p.w.ranks)
	stage := rec.begin("partition", driverTrack, parent)
	start := time.Now()
	err := p.run(1, func(c *mpi.Comm) {
		rank := c.Rank()
		fail := func(err error) {
			if rank == 0 {
				stageErr = err
			}
		}
		var chunk []graph.Edge
		rec.time("gen.edges_chunk", rank, stage, func() {
			chunk = p.gen.EdgesChunk(rank, c.Size())
		})
		var dg *dgraph.Graph
		var err error
		rec.time("dgraph.build", rank, stage, func() {
			dg, err = dgraph.FromEdgeChunks(c, p.gen.N, chunk, dgraph.HashDist{P: c.Size(), Seed: p.seed})
		})
		if err != nil {
			fail(err) // deterministic and identical on every rank
			return
		}
		dg.SetPipeDepth(pipeDepth)
		var local []int32
		var rep core.Report
		rec.time("core.partition", rank, stage, func() {
			local, rep, err = core.Partition(dg, opt)
		})
		if err != nil {
			dg.Close()
			fail(err)
			return
		}
		var full []int32
		rec.time("dgraph.gather", rank, stage, func() {
			full = dg.GatherGlobal(local[:dg.NLocal])
		})
		per[rank] = tracedPartition{
			stats: c.Stats(), edges: int64(len(chunk)),
			nGhost: int64(dg.NGhost), nLocal: int64(dg.NLocal),
			boundary: int64(len(dg.BoundaryVertices())),
		}
		dg.Close()
		if rank == 0 {
			out.parts, out.rep = full, rep
		}
	})
	out.wall = time.Since(start)
	rec.end(stage)
	for _, r := range per {
		out.stats.SendOps += r.stats.SendOps
		out.stats.RecvOps += r.stats.RecvOps
		out.stats.Collectives += r.stats.Collectives
		out.stats.ExchangeOps += r.stats.ExchangeOps
		out.stats.ElemsSent += r.stats.ElemsSent
		out.stats.TallyElems += r.stats.TallyElems
		out.edges += r.edges
		out.nGhost += r.nGhost
		out.nLocal += r.nLocal
		out.boundary += r.boundary
	}
	if err == nil {
		err = stageErr
	}
	return out, err
}

// tracedOut is what the traced pass hands back.
type tracedOut struct {
	metrics []metric
	spans   []span
	// partHash must equal the untraced partition's: the traced
	// partition stage re-states the facade's body, and this keeps the
	// restatement honest.
	partHash uint64
}

// partitionLayers are the spans that attribute the partition stage.
var partitionLayers = []string{"gen.edges_chunk", "dgraph.build", "core.partition", "dgraph.gather"}

// tracedPass runs one pipeline pass with spans kept in memory, then the
// layer probes, and returns every per-layer metric. untracedPartition
// is the untraced median partition wall the tracing overhead is taken
// against. On the socket workload the pass runs over the timing
// decorator; the probes run over the bare world.
func (p *pipeline) tracedPass(untracedPartition time.Duration) (tracedOut, error) {
	bare := p.ts
	var waits []*tracedTransport
	if p.w.socket {
		decorated, traced, err := traceWorld(bare)
		if err != nil {
			return tracedOut{}, err
		}
		p.ts, waits = decorated, traced
	}
	// The untraced repetitions run back to back; start this pass from a
	// collected heap too, not from the last SpMV's garbage.
	runtime.GC()
	rec := newRecorder()
	root := rec.begin("pipeline", driverTrack, -1)
	tp, err := p.tracedPartition(rec, root)
	if err != nil {
		p.ts = bare
		return tracedOut{}, fmt.Errorf("traced partition: %w", err)
	}
	// Read before the later stages add to the decorator's counters.
	var recvWait, collWait, sendTime time.Duration
	for _, t := range waits {
		recvWait += time.Duration(t.recvWait.Load())
		collWait += time.Duration(t.collWait.Load())
		sendTime += time.Duration(t.send.Load())
	}
	placement := p.placement(tp.parts)
	aStage := rec.begin("analytics", driverTrack, root)
	ar, _, aErr := p.analytics(placement, rec, aStage)
	rec.end(aStage)
	sStage := rec.begin("spmv", driverTrack, root)
	so, sErr := p.spmv(placement, rec, sStage)
	rec.end(sStage)
	rec.end(root)
	p.ts = bare
	if aErr != nil {
		return tracedOut{}, fmt.Errorf("traced analytics: %w", aErr)
	}
	if sErr != nil {
		return tracedOut{}, fmt.Errorf("traced spmv: %w", sErr)
	}

	var attributed time.Duration
	for _, name := range partitionLayers {
		attributed += rec.total(name, 0)
	}
	ms := []metric{
		seconds("gen.edges_chunk_s", rec.total("gen.edges_chunk", 0)),
		count("gen.edges", tp.edges),
		seconds("dgraph.build_s", rec.total("dgraph.build", 0)),
		seconds("dgraph.gather_s", rec.total("dgraph.gather", 0)),
		count("dgraph.n_ghost", tp.nGhost),
		scalar("dgraph.boundary_frac", float64(tp.boundary)/float64(tp.nLocal), "frac"),
	}
	dm, nLocal, err := p.probeDgraph()
	if err != nil {
		return tracedOut{}, fmt.Errorf("dgraph probes: %w", err)
	}
	ms = append(ms, dm...)
	ms = append(ms,
		seconds("core.partition_s", tp.rep.TotalTime),
		seconds("core.init_s", tp.rep.InitTime),
		seconds("core.vert_s", tp.rep.VertTime),
		seconds("core.edge_s", tp.rep.EdgeTime),
		count("core.init_iters", int64(tp.rep.InitIters)),
		count("core.exch_elems", tp.rep.ExchangeVolume),
		count("core.allreduces", tp.rep.ReductionOps),
		count("mpi.send_ops", tp.stats.SendOps),
		count("mpi.recv_ops", tp.stats.RecvOps),
		count("mpi.collectives", tp.stats.Collectives),
		count("mpi.exchange_ops", tp.stats.ExchangeOps),
		count("mpi.elems_sent", tp.stats.ElemsSent),
		count("mpi.tally_elems", tp.stats.TallyElems),
	)
	mm, err := p.probeMPI()
	if err != nil {
		return tracedOut{}, fmt.Errorf("mpi probes: %w", err)
	}
	ms = append(ms, mm...)
	// Blocked time inside the in-process transport is invisible from
	// outside; see tracedTransport.
	wait := func(name string, d time.Duration) metric {
		if !p.w.socket {
			return unmeasured(name, "s")
		}
		return seconds(name, d)
	}
	ms = append(ms,
		wait("mpi.recv_wait_s", recvWait),
		wait("mpi.collective_wait_s", collWait),
		wait("mpi.send_s", sendTime))
	ms = append(ms, probeWire()...)
	ms = append(ms, probePar(nLocal, p.w.spmvThreads)...)

	var sweep, comm time.Duration
	var iters int64
	for _, r := range ar.Results {
		ms = append(ms, seconds("analytics."+strings.ToLower(r.Name)+"_s", r.Time))
		sweep += r.SweepTime
		comm += r.Time - r.SweepTime
		iters += int64(r.Iterations)
	}
	ms = append(ms,
		seconds("analytics.sweep_s", sweep),
		seconds("analytics.comm_s", comm),
		count("analytics.allreduces", ar.ReductionOps),
		count("analytics.exch_elems", ar.ExchangeVolume),
		count("analytics.iterations", iters),
		seconds("spmv.run_s", so.res.Time),
		seconds("spmv.multiply_s", so.res.MultiplyTime),
		seconds("spmv.comm_s", so.res.Time-so.res.MultiplyTime),
		seconds("spmv.setup_s", so.wall-so.res.Time),
		count("spmv.comm_volume", so.volume),
		count("spmv.reductions", so.res.Reductions),
	)

	// The sheet's plain single-thread baseline on the same graph.
	popt := pulp.DefaultOptions(numParts)
	popt.Threads = 1
	popt.Seed = p.seed
	pstart := time.Now()
	pparts, _, err := pulp.Partition(p.g, popt)
	pwall := time.Since(pstart)
	if err != nil {
		return tracedOut{}, fmt.Errorf("pulp baseline: %w", err)
	}
	ms = append(ms,
		seconds("pulp.partition_s", pwall),
		scalar("pulp.edge_cut_ratio", repro.Evaluate(p.g, pparts, numParts).EdgeCutRatio, "ratio"),
		scalar("trace.unattributed_frac", 1-attributed.Seconds()/tp.wall.Seconds(), "frac"),
		scalar("trace.overhead_frac", tp.wall.Seconds()/untracedPartition.Seconds()-1, "frac"),
	)
	return tracedOut{metrics: ms, spans: rec.spans, partHash: hashParts(tp.parts)}, nil
}
