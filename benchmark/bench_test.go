package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func smokeOptions(t *testing.T, seed uint64) options {
	// A few milliseconds of measuring time: every stage runs its
	// minimum number of times.
	return options{seed: seed, seconds: 0.005, trace: true, sz: smokeSize, scratch: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs all four workloads at R-MAT scale 10 / mesh 16^3 and
// holds the output to BENCHMARK.json, the traces to their invariants,
// and the rmat17 trio to the sync = async = socket contract.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	var results []result
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, m.Workloads[i].Name, w.name)
		}
		res, err := runWorkload(w, smokeOptions(t, 1))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		results = append(results, res)
		if res.Failed != 0 {
			t.Errorf("%s: failed checks: %v", w.name, res.Failures)
		}

		if len(res.EndToEnd) != len(m.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", w.name, len(res.EndToEnd), len(m.EndToEnd))
		}
		for _, want := range m.EndToEnd {
			got := findMetric(res.EndToEnd, want.Name)
			switch {
			case got == nil || got.Value == nil:
				t.Errorf("%s: end-to-end metric %s not emitted", w.name, want.Name)
			case got.Unit != want.Unit || !nameRE.MatchString(got.Name):
				t.Errorf("%s: %s emitted with unit %q, want %q", w.name, got.Name, got.Unit, want.Unit)
			case *got.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", w.name, want.Name)
			}
			if bounds[want.Name] != want.Bound || want.Better != "lower" {
				t.Errorf("%s: BENCHMARK.json bound %v %s, compare.go has %v lower", want.Name, want.Bound, want.Better, bounds[want.Name])
			}
		}
		if len(res.PerLayer) != len(m.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json names %d", w.name, len(res.PerLayer), len(m.PerLayer))
		}
		for _, want := range m.PerLayer {
			got := findMetric(res.PerLayer, want.Name)
			if got == nil || got.Unit != want.Unit || !nameRE.MatchString(got.Name) {
				t.Errorf("%s: per-layer metric %s (%s) not emitted as named", w.name, want.Name, want.Unit)
				continue
			}
			// Transport wait times exist only where the decorator runs.
			waits := strings.HasSuffix(want.Name, "_wait_s") || want.Name == "mpi.send_s"
			if measured := got.Value != nil; measured != (!waits || w.socket) {
				t.Errorf("%s: %s measured = %v", w.name, want.Name, measured)
			}
		}

		// Spans: well formed, one track per rank plus the driver's, and
		// the four layer spans of each rank fit inside the partition
		// stage they attribute.
		if err := checkSpans(res.spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		tracks := map[int]bool{}
		layerTime := map[int]int64{}
		var stage span
		for _, s := range res.spans {
			tracks[s.Track] = true
			if s.Run != tracedRun {
				t.Errorf("%s: span %q has run id %d", w.name, s.Name, s.Run)
			}
			if s.Name == "partition" {
				stage = s
			}
			for _, l := range partitionLayers {
				if s.Name == l {
					layerTime[s.Track] += int64(s.dur())
				}
			}
		}
		if len(tracks) != w.ranks+1 || !tracks[driverTrack] {
			t.Errorf("%s: tracks %v, want %d ranks and the driver", w.name, tracks, w.ranks)
		}
		for r := 0; r < w.ranks; r++ {
			if layerTime[r] <= 0 || layerTime[r] > int64(stage.dur()) {
				t.Errorf("%s: rank %d layer spans sum to %d ns in a %d ns stage", w.name, r, layerTime[r], stage.dur())
			}
		}
		if u := *findMetric(res.PerLayer, "trace.unattributed_frac").Value; u < 0 || u >= 1 {
			t.Errorf("%s: unattributed fraction %v", w.name, u)
		}
	}
	if ck := crossChecks(results); ck.Failed != 0 || ck.Attempted != 6 {
		t.Errorf("cross-workload checks: %d attempted, failures %v", ck.Attempted, ck.Failures)
	}

	// The workloads discriminate as the README predicts.
	exch := func(i int) float64 { return *findMetric(results[i].PerLayer, "core.exch_elems").Value }
	if async, sync := exch(0), exch(1); async > 0.6*sync {
		t.Errorf("core.exch_elems: async %v is not <= 0.6 x sync %v", async, sync)
	}

	// Seeds: the same seed reproduces the graph and the partition, a
	// different one generates a different graph, and quality is taken
	// on the canonical input either way.
	w := workloads[0]
	again, err := runWorkload(w, smokeOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := runWorkload(w, smokeOptions(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	first := results[0]
	if again.GraphHash != first.GraphHash || again.PartitionHash != first.PartitionHash {
		t.Errorf("seed 1 twice: hashes %s/%s then %s/%s", first.GraphHash, first.PartitionHash, again.GraphHash, again.PartitionHash)
	}
	if other.GraphHash == first.GraphHash {
		t.Errorf("seeds 1 and 2 generate the same graph %s", first.GraphHash)
	}
	if other.Failed != 0 {
		t.Errorf("seed 2: failed checks: %v", other.Failures)
	}
	for _, name := range []string{"edge_cut_ratio", "max_part_cut_ratio", "vertex_imbalance", "edge_imbalance"} {
		if a, b := *findMetric(first.EndToEnd, name).Value, *findMetric(other.EndToEnd, name).Value; a != b {
			t.Errorf("%s: %v at seed 1, %v at seed 2; both are measured on the canonical input", name, a, b)
		}
	}

	// The one-line result carries exactly the manifest's metrics.
	for traced, want := range map[bool]int{false: len(m.EndToEnd), true: len(m.PerLayer)} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(resultLine(first, traced)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != want {
			t.Errorf("result line (traced=%v): %+v", traced, line)
		}
		for name, v := range line.Metrics {
			if v.Value == nil || v.Unit == "" {
				t.Errorf("result line: %s has no number or unit", name)
			}
		}
	}
}

// TestTraceWorldRefusesProc: decorating an in-process world would strip
// its unexported fast path and measure a different program. That the
// decorated socket world partitions bit-identically to the bare one is
// TestSmoke's "traced partition hash" check on rmat17_socket_async.
func TestTraceWorldRefusesProc(t *testing.T) {
	if _, _, err := traceWorld(mpi.NewProcWorld(2)); err == nil {
		t.Fatal("traceWorld decorated an in-process world")
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, iqr float64) metric { return metric{Value: &v, IQR: iqr} }
	for _, c := range []struct {
		old, new metric
		want     string
	}{
		{m(1, 0), m(1.09, 0), "ok"},
		{m(1, 0), m(1.11, 0), "regressed"},
		{m(1, 0.2), m(1.05, 0), "unresolved"},
		{m(1, 0), m(0.5, 0.06), "unresolved"},
		{m(1, 0), metric{}, "unresolved"},
	} {
		if got := verdict(c.old, c.new, 0.10); got != c.want {
			t.Errorf("verdict(%v±%v, %v) = %s, want %s", *c.old.Value, c.old.IQR, c.new.Value, got, c.want)
		}
	}
	old := summary{Workloads: []result{{Name: "w", EndToEnd: []metric{m(1, 0)}}}}
	old.Workloads[0].EndToEnd[0].Name = "partition_s"
	worse := summary{Workloads: []result{{Name: "w", FailFrac: 0.1, EndToEnd: old.Workloads[0].EndToEnd}}}
	var sink strings.Builder
	if code := compareSummaries(&sink, old, old); code != 0 {
		t.Errorf("A/A comparison exits %d:\n%s", code, sink.String())
	}
	if code := compareSummaries(&sink, old, worse); code != 1 {
		t.Errorf("a fail_frac increase exits %d", code)
	}
}
