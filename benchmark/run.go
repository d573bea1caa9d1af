package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro"
	"repro/internal/partition"
)

// options are the benchmark's own settings; none reaches the program
// under test except through the generated inputs.
type options struct {
	seed uint64
	// seconds is how long one workload measures. Its stages share it:
	// the partition stage and SpMV repeat for 15 % each and at least
	// three times, analytics for 70 % and at least once. Analytics gets
	// the most because it needs it: one pass takes 7-12 s on rmat17, so
	// at 20 s it runs once there. Partition and SpMV repetitions agree
	// within 3 % inside a run, so three are enough.
	seconds float64
	// trace adds the traced pass and the layer probes.
	trace   bool
	sz      size
	scratch string
}

// setups is how many times a run sets up; setup_s is their median and
// the last one is measured on.
const setups = 3

// canonicalSeed is the input the quality metrics are measured on; see
// canonicalQuality.
const canonicalSeed = 1

// checks counts operations and the ones that failed. Every stage call
// and every output check is one operation.
type checks struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.Failed++
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

// result is one workload's measured run.
type result struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Hex fingerprints of the generated graph and the partition.
	GraphHash     string `json:"graph_hash"`
	PartitionHash string `json:"partition_hash"`
	// AnalyticsValues are the six analytics' scalar results in Fig. 8
	// order; with SpMVChecksum they are the outputs the checks compare.
	AnalyticsValues []float64 `json:"analytics_values"`
	SpMVChecksum    float64   `json:"spmv_checksum"`
	checks
	FailFrac float64  `json:"fail_frac"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer,omitempty"`

	spans []span
}

// print writes every metric as "workload metric value unit".
func (r result) print(w io.Writer) {
	for _, m := range append(append([]metric(nil), r.EndToEnd...), r.PerLayer...) {
		if m.Value == nil {
			fmt.Fprintf(w, "%s %s null %s\n", r.Name, m.Name, m.Unit)
			continue
		}
		// Every digit, no exponent: counts stay whole numbers.
		fmt.Fprintf(w, "%s %s %s %s", r.Name, m.Name, strconv.FormatFloat(*m.Value, 'f', -1, 64), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d min=%.6g max=%.6g iqr=%.6g", m.N, m.Min, m.Max, m.IQR)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s fail_frac %.6g frac failed=%d attempted=%d\n", r.Name, r.FailFrac, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Name, f)
	}
}

// repeat calls rep at least atLeast times, then until one more
// repetition would overrun share. rep reports false to stop early.
func repeat(share time.Duration, atLeast int, rep func() bool) {
	start := time.Now()
	for n := 1; ; n++ {
		repStart := time.Now()
		if !rep() {
			return
		}
		if n >= atLeast && time.Since(start)+time.Since(repStart) > share {
			return
		}
	}
}

// runWorkload sets the workload up, measures it for opt.seconds with
// tracing off, checks its outputs, and with opt.trace adds the traced
// pass. An error means the run could not be measured at all; failed
// checks and stage errors during measurement are counted in the
// result.
func runWorkload(w workload, opt options) (res result, err error) {
	var p *pipeline
	var ref partitionOut
	setupS := make([]float64, setups)
	for i := range setupS {
		if p != nil {
			if err := p.close(); err != nil {
				return result{}, err
			}
		}
		// Each set-up starts from a collected heap, or the last one's
		// garbage decides when this one pays for a collection.
		runtime.GC()
		start := time.Now()
		if p, err = newPipeline(w, opt.sz, opt.seed, opt.scratch); err != nil {
			return result{}, err
		}
		// The warm-up pass is one partition call: it is the only stage
		// whose first call runs measurably slower than its later ones
		// (1.4 s against 0.9 s on rmat17; analytics and SpMV show no
		// such step), and a full pass would add 8 s to every set-up.
		if ref, err = p.partition(); err != nil {
			p.close()
			return result{}, fmt.Errorf("%s: warm-up partition: %w", w.name, err)
		}
		setupS[i] = time.Since(start).Seconds()
	}
	defer func() {
		if cerr := p.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	refHash := hashParts(ref.parts)
	placement := p.placement(ref.parts)
	res = result{
		Name: w.name, Seed: opt.seed,
		GraphHash:     fmt.Sprintf("%016x", hashGraph(p.g)),
		PartitionHash: fmt.Sprintf("%016x", refHash),
	}
	ck := &res.checks
	budget := time.Duration(opt.seconds * float64(time.Second))

	var partS, allocMB, anaS, spmvS []float64
	repeat(budget*15/100, 3, func() bool {
		out, err := p.partition()
		ck.check(err == nil, "partition: %v", err)
		if err != nil {
			return false
		}
		partS = append(partS, out.wall.Seconds())
		allocMB = append(allocMB, out.allocMB)
		verr := partition.Validate(p.g, out.parts, numParts)
		ck.check(verr == nil, "partition invalid: %v", verr)
		h := hashParts(out.parts)
		ck.check(h == refHash, "partition hash %016x differs from warm-up %016x", h, refHash)
		return true
	})
	repeat(budget*70/100, 1, func() bool {
		rep, wall, err := p.analytics(placement, nil, 0)
		ck.check(err == nil, "analytics: %v", err)
		if err != nil {
			return false
		}
		anaS = append(anaS, wall.Seconds())
		vals := make([]float64, len(rep.Results))
		for i, r := range rep.Results {
			vals[i] = r.Value
			if r.Name == "PR" {
				ck.check(math.Abs(r.Value-1) <= 1e-9, "PageRank mass %v is not 1", r.Value)
			}
		}
		if res.AnalyticsValues == nil {
			res.AnalyticsValues = vals
		}
		ck.check(slices.Equal(vals, res.AnalyticsValues), "analytics values %v differ from first repetition %v", vals, res.AnalyticsValues)
		return true
	})
	repeat(budget*15/100, 3, func() bool {
		out, err := p.spmv(placement, nil, 0)
		ck.check(err == nil, "spmv: %v", err)
		if err != nil {
			return false
		}
		if spmvS == nil {
			res.SpMVChecksum = out.res.Checksum
		}
		spmvS = append(spmvS, out.wall.Seconds())
		ck.check(out.res.Checksum == res.SpMVChecksum, "spmv checksum %v differs from first repetition %v", out.res.Checksum, res.SpMVChecksum)
		return true
	})
	if len(partS) == 0 || len(anaS) == 0 || len(spmvS) == 0 {
		return res, fmt.Errorf("%s: a stage never completed: %v", w.name, ck.Failures)
	}

	var maxVerts int64
	for _, n := range partition.PartSizes(ref.parts, numParts) {
		maxVerts = max(maxVerts, n)
	}
	limit := int64(math.Ceil(maxVertImbalance * float64(p.g.N) / numParts))
	ck.check(maxVerts <= limit, "largest part has %d vertices, constraint allows %d", maxVerts, limit)

	q, err := p.canonicalQuality(opt.sz, ref)
	if err != nil {
		return res, err
	}
	res.EndToEnd = []metric{
		sampled("setup_s", setupS, "s"),
		sampled("partition_s", partS, "s"),
		sampled("analytics_s", anaS, "s"),
		sampled("spmv_s", spmvS, "s"),
		scalar("edge_cut_ratio", q.EdgeCutRatio, "ratio"),
		scalar("max_part_cut_ratio", q.ScaledMaxCutRatio, "ratio"),
		scalar("vertex_imbalance", q.VertexImbalance, "ratio"),
		scalar("edge_imbalance", q.EdgeImbalance, "ratio"),
		sampled("partition_alloc_mb", allocMB, "MB"),
	}

	if opt.trace {
		untraced := time.Duration(median(partS) * float64(time.Second))
		tr, err := p.tracedPass(untraced)
		ck.check(err == nil, "traced pass: %v", err)
		if err == nil {
			res.PerLayer, res.spans = tr.metrics, tr.spans
			ck.check(tr.partHash == refHash, "traced partition hash %016x differs from untraced %016x", tr.partHash, refHash)
			serr := checkSpans(tr.spans)
			ck.check(serr == nil, "malformed trace: %v", serr)
			if !w.socket {
				allocs := *findMetric(tr.metrics, "dgraph.round_allocs").Value
				ck.check(allocs < 0.5, "in-process exchange round allocates: %.2f mallocs per round", allocs)
			}
		}
	}
	res.FailFrac = float64(ck.Failed) / float64(ck.Attempted)
	return res, nil
}

// canonicalQuality evaluates the partition of the canonicalSeed input.
// The partitioner is chaotic in its seed and in its graph: over ten
// seeds edge imbalance spans 1.11-1.84 and the scaled max cut 2.05-3.13
// on rmat17, and the mesh cut 0.065-0.087, so across seeds no quality
// bound under 25 % could hold. On one fixed input the partition is
// bit-reproducible and a 1 % bound means something. Timings and
// allocation are taken on the run's own seed; quality is taken here,
// from one extra untimed partition call when the run's seed is not the
// canonical one. It is evaluated on the shared graph, not taken from
// the partitioner's own report.
func (p *pipeline) canonicalQuality(sz size, ref partitionOut) (repro.Quality, error) {
	if p.seed == canonicalSeed {
		return repro.Evaluate(p.g, ref.parts, numParts), nil
	}
	canon := &pipeline{w: p.w, seed: canonicalSeed, gen: p.w.generator(sz, canonicalSeed), ts: p.ts}
	g, err := canon.gen.Build()
	if err != nil {
		return repro.Quality{}, fmt.Errorf("%s: build canonical graph: %w", p.w.name, err)
	}
	out, err := canon.partition()
	if err != nil {
		return repro.Quality{}, fmt.Errorf("%s: canonical partition: %w", p.w.name, err)
	}
	return repro.Evaluate(g, out.parts, numParts), nil
}

func findMetric(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}
