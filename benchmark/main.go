// Command benchmark measures the user-visible pipeline of this
// repository — partition, then the six analytics, then SpMV — on four
// named workloads, end to end with tracing off and layer by layer from
// a separate traced pass. It prints every metric as
// "workload metric value unit", checks the outputs, and exits non-zero
// when a check fails. See README.md in this directory.
//
//	go run ./benchmark                        # all four workloads
//	go run ./benchmark -workload NAME -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare old.json new.json
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
)

// stamp records where a results file was measured.
type stamp struct {
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// summary is the results file. It ends with a null claim: this
// benchmark defines the measurement and claims no gain.
type summary struct {
	Stamp     stamp    `json:"stamp"`
	Workloads []result `json:"workloads"`
	// Cross holds the checks that span workloads.
	Cross checks  `json:"cross_checks"`
	Claim *string `json:"claim"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all four)")
		seed     = flag.Uint64("seed", 1, "seeds graph generation and the partitioner")
		secs     = flag.Float64("seconds", 40, "measuring time per workload")
		trace    = flag.Int("trace", 1, "1 adds the traced pass and the layer probes; with -workload, selects which metrics the JSON result carries")
		out      = flag.String("out", "", "write the results file here")
		traceOut = flag.String("trace-out", "", "write the traced passes as Chrome-trace JSON here")
		compare  = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	// The box has two cores; the workloads are sized to them.
	runtime.GOMAXPROCS(2)
	opt := options{seed: *seed, seconds: *secs, trace: *trace == 1, sz: fullSize, scratch: ".bench_build"}
	run := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		run = []workload{w}
	}

	sum := summary{Stamp: stamp{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: *seed, Seconds: *secs,
	}}
	for _, w := range run {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		res.print(os.Stdout)
		sum.Workloads = append(sum.Workloads, res)
	}
	sum.Cross = crossChecks(sum.Workloads)
	for _, f := range sum.Cross.Failures {
		fmt.Printf("cross FAILED %s\n", f)
	}

	failed := sum.Cross.Failed
	for _, r := range sum.Workloads {
		failed += r.Failed
	}
	if *out != "" {
		data, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, sum.Workloads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *name != "" {
		fmt.Println(resultLine(sum.Workloads[0], opt.trace))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// crossChecks holds the three rmat17 workloads to the sync = async =
// socket contract: same graph, same partition, same analytics values.
func crossChecks(rs []result) checks {
	var ck checks
	var first *result
	for i := range rs {
		r := &rs[i]
		if w, _ := findWorkload(r.Name); w.mesh {
			continue
		}
		if first == nil {
			first = r
			continue
		}
		ck.check(r.GraphHash == first.GraphHash, "%s and %s: graph hashes differ", first.Name, r.Name)
		ck.check(r.PartitionHash == first.PartitionHash, "%s and %s: partition hashes differ", first.Name, r.Name)
		ck.check(slices.Equal(r.AnalyticsValues, first.AnalyticsValues), "%s and %s: analytics values differ", first.Name, r.Name)
	}
	return ck
}

// resultLine is the one-line JSON result of a single-workload run. A
// metric the workload cannot measure reads 0 there, because the line
// carries numbers only; the metric lines above it say null.
func resultLine(r result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.EndToEnd
	if traced {
		ms = r.PerLayer
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		v := value{Unit: m.Unit}
		if m.Value != nil {
			v.Value = *m.Value
		}
		metrics[m.Name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
