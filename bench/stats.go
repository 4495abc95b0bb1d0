package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie at or beyond a percentile before
// it is reported: a p99 needs 1000 samples, a p50 needs 20.
const minBeyond = 10

// percentile returns the per-mille quantile (500 = p50, 990 = p99) of an
// ascending sample, and false when fewer than minBeyond samples lie
// beyond it — the run then reports the metric as null instead of quoting
// a tail it did not observe.
func percentile(sorted []float64, permille int) (float64, bool) {
	n := len(sorted)
	if n*(1000-permille) < minBeyond*1000 {
		return 0, false
	}
	return sorted[(n-1)*permille/1000], true
}

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile of xs as a
// share of its median — the driver's measure of how steady a metric is,
// with quartiles as Python's statistics.quantiles(xs, n=4) gives them.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 || median(s) == 0 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies collects per-operation durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// quantiles sorts the sample in place and returns p50 and p99 under the
// percentile rule (nil = too few samples).
func (l latencies) quantiles() (p50, p99 *float64) {
	sort.Float64s(l)
	if v, ok := percentile(l, 500); ok {
		p50 = &v
	}
	if v, ok := percentile(l, 990); ok {
		p99 = &v
	}
	return p50, p99
}
