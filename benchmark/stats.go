package main

import (
	"slices"
	"time"
)

// metric is one named measurement of one workload.
type metric struct {
	Name string `json:"name"`
	// Value is nil when the metric cannot be measured on the workload
	// (printed as null).
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	// Sample statistics; present on timed end-to-end metrics, where
	// Value is the median of N timed repetitions.
	N   int     `json:"n,omitempty"`
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	IQR float64 `json:"iqr,omitempty"`
}

func scalar(name string, v float64, unit string) metric {
	return metric{Name: name, Value: &v, Unit: unit}
}

func seconds(name string, d time.Duration) metric {
	return scalar(name, d.Seconds(), "s")
}

func count(name string, n int64) metric {
	return scalar(name, float64(n), "count")
}

// unmeasured is a metric the workload's substrate cannot give.
func unmeasured(name, unit string) metric {
	return metric{Name: name, Unit: unit}
}

// sampled summarizes repeated measurements by their median.
func sampled(name string, xs []float64, unit string) metric {
	s := sortedCopy(xs)
	med := quantile(s, 0.5)
	return metric{
		Name: name, Value: &med, Unit: unit,
		N: len(s), Min: s[0], Max: s[len(s)-1],
		IQR: quantile(s, 0.75) - quantile(s, 0.25),
	}
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile interpolates linearly between order statistics of the
// sorted, non-empty s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

// medianDuration times fn reps times and returns the median.
func medianDuration(reps int, fn func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}
