package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// quantile is one percentile of a sample, with the sample count it came
// from so every printed tail carries its base.
type quantile struct {
	P     float64 // in (0, 1)
	Value float64
	N     int
}

func (q quantile) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d)", 100*q.P, q.Value, q.N)
}

// percentile returns the nearest-rank p-quantile of xs. ok is false when
// fewer than minBeyond samples lie beyond it, i.e. when the sample is too
// small to support that percentile.
func percentile(xs []float64, p float64) (q quantile, ok bool) {
	n := len(xs)
	q = quantile{P: p, N: n}
	if n == 0 {
		return q, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	q.Value = s[i]
	return q, n-1-i >= minBeyond
}

// tailPercentiles are the candidates tail tries, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.9, 0.5}

// tail returns the highest of tailPercentiles that xs supports, falling back
// to the median of a sample too small for any of them.
func tail(xs []float64) quantile {
	for _, p := range tailPercentiles {
		if q, ok := percentile(xs, p); ok {
			return q
		}
	}
	q, _ := percentile(xs, 0.5)
	return q
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" interpolation Python's statistics.quantiles(xs, n=4) uses, so
// spreads printed here match ones computed from the printed values. A sample
// of fewer than two values has both quartiles equal to its only value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median (0 when
// the median is 0).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
