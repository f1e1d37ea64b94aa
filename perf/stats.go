package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the middle two for an
// even count), 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank q-quantile of an ascending sample:
// the smallest value with at least q of the sample at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supportedTail is the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it in a sample of n — the percentile a
// report may quote without it being one outlier's latency.
func supportedTail(n int) float64 {
	tail := 0.5
	for _, t := range []struct {
		q      float64
		beyond int // one sample in this many lies beyond q
	}{{0.9, 10}, {0.99, 100}, {0.999, 1000}} {
		if n/t.beyond >= 10 {
			tail = t.q
		}
	}
	return tail
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
