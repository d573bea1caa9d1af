package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// bounds gives, per end-to-end metric, the share of the old value by
// which the new one may be worse before it counts as a regression.
// Every metric is better when lower. BENCHMARK.json carries the same
// table; the smoke test holds the two together. The timings sit at
// 25 %: identical processes on this two-vCPU VM differ by 7-15 %
// between their quartiles whatever the repetition count, because the
// noise is per process and per minute, not per repetition (README,
// "Noise"). Allocation follows the run's own graph, and over ten seeds
// its quartiles sit 2-5 % apart, so its bound is three times that.
var bounds = map[string]float64{
	"setup_s":            0.25,
	"partition_s":        0.25,
	"analytics_s":        0.25,
	"spmv_s":             0.25,
	"edge_cut_ratio":     0.01,
	"max_part_cut_ratio": 0.02,
	"vertex_imbalance":   0.005,
	"edge_imbalance":     0.02,
	"partition_alloc_mb": 0.15,
}

func readSummary(path string) (summary, error) {
	var s summary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict judges one (metric, workload) pair. A pair is unresolved, not
// ok, when either side's own spread is wider than the bound: the runs
// cannot tell a regression of that size from noise.
func verdict(o, n metric, bound float64) string {
	if o.Value == nil || n.Value == nil {
		return "unresolved"
	}
	if *n.Value > *o.Value*(1+bound) {
		return "regressed"
	}
	if o.IQR > bound**o.Value || n.IQR > bound**n.Value {
		return "unresolved"
	}
	return "ok"
}

// runCompare prints one row per (metric, workload) and returns the exit
// code: 1 on any regression or any increase of fail_frac.
func runCompare(w io.Writer, oldPath, newPath string) int {
	oldSum, oldErr := readSummary(oldPath)
	newSum, newErr := readSummary(newPath)
	if err := errors.Join(oldErr, newErr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return compareSummaries(w, oldSum, newSum)
}

func compareSummaries(w io.Writer, oldSum, newSum summary) int {
	code := 0
	for _, n := range newSum.Workloads {
		var o *result
		for i := range oldSum.Workloads {
			if oldSum.Workloads[i].Name == n.Name {
				o = &oldSum.Workloads[i]
			}
		}
		if o == nil {
			fmt.Fprintf(w, "%s: not in the old results\n", n.Name)
			code = 1
			continue
		}
		for _, nm := range n.EndToEnd {
			om := findMetric(o.EndToEnd, nm.Name)
			bound, known := bounds[nm.Name]
			if om == nil || !known {
				fmt.Fprintf(w, "%s %s: not comparable\n", n.Name, nm.Name)
				code = 1
				continue
			}
			v := verdict(*om, nm, bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%s %s old=%.6g new=%.6g %s change=%+.2f%% bound=+%.1f%% %s\n",
				n.Name, nm.Name, *om.Value, *nm.Value, nm.Unit, (*nm.Value / *om.Value - 1)*100, bound*100, v)
		}
		v := "ok"
		if n.FailFrac > o.FailFrac {
			v, code = "regressed", 1
		}
		fmt.Fprintf(w, "%s fail_frac old=%.6g new=%.6g frac %s\n", n.Name, o.FailFrac, n.FailFrac, v)
	}
	return code
}
