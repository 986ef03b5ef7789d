package main

import (
	"math"
	"sort"
)

// dist summarizes one latency distribution. Failed or refused operations
// enter it as +Inf, so they count as missing every latency limit.
type dist struct {
	n      int
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{n: len(s), sorted: s}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
func (d dist) percentile(p float64) float64 {
	if d.n == 0 {
		return math.NaN()
	}
	rank := d.rank(p)
	if rank < 1 {
		rank = 1
	}
	if rank > d.n {
		rank = d.n
	}
	return d.sorted[rank-1]
}

// rank is the 1-based nearest rank of the p-th percentile; the small
// epsilon keeps p·n/100 from rounding up past an exact integer (99.9% of
// 1000 is rank 999, not 1000).
func (d dist) rank(p float64) int {
	return int(math.Ceil(p*float64(d.n)/100 - 1e-9))
}

// beyond counts the samples strictly above the p-th percentile's rank.
func (d dist) beyond(p float64) int {
	rank := d.rank(p)
	if rank > d.n {
		rank = d.n
	}
	return d.n - rank
}

// supportedPercentiles lists the percentiles a report may claim, lowest
// first.
var supportedPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// topPercentile returns the highest percentile in supportedPercentiles
// with at least ten samples beyond it, or 0 when even the median has
// fewer.
func (d dist) topPercentile() float64 {
	top := 0.0
	for _, p := range supportedPercentiles {
		if d.beyond(p) >= 10 {
			top = p
		}
	}
	return top
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spread report matches an external check exactly.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// windowed splits xs (in arrival order) into k consecutive windows of
// equal size, applies f to each, and returns the median of the results.
// A tail percentile reported this way shrugs off one disturbed window.
func windowed(xs []float64, k int, f func(dist) float64) float64 {
	if k < 1 || len(xs) < k {
		k = 1
	}
	size := len(xs) / k
	var vals []float64
	for w := 0; w < k; w++ {
		lo, hi := w*size, (w+1)*size
		if w == k-1 {
			hi = len(xs)
		}
		vals = append(vals, f(newDist(xs[lo:hi])))
	}
	return median(vals)
}
