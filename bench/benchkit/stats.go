package benchkit

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample; 0 for an empty one.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median is the 50th percentile by interpolation (the mean of the two
// middle values of an even sample).
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Tail is a high percentile together with the evidence behind it.
type Tail struct {
	// Percentile is the level actually reported: the wanted one when
	// the sample supports it, otherwise lower.
	Percentile float64
	Value      float64
	// N is the sample size, Beyond the number of samples strictly
	// above the reported rank.
	N      int
	Beyond int
}

// TailPercentile reports the highest percentile not above want that
// has at least minBeyond samples beyond it, so a tail is never read
// off a handful of outliers. A sample too small for any such level
// (n <= minBeyond) reports its maximum with Percentile 100 and Beyond
// 0: the caller sees from N that it is a maximum, not a percentile.
func TailPercentile(sorted []float64, want float64, minBeyond int) Tail {
	n := len(sorted)
	if n == 0 {
		return Tail{}
	}
	if n <= minBeyond {
		return Tail{Percentile: 100, Value: sorted[n-1], N: n}
	}
	rank := int(math.Ceil(want / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = 1
	}
	return Tail{
		Percentile: 100 * float64(rank) / float64(n),
		Value:      sorted[rank-1],
		N:          n,
		Beyond:     n - rank,
	}
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the benchmark's acceptance spread is defined. It needs
// at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := Sorted(xs)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// Spread is the interquartile distance as a share of the median: the
// run-to-run steadiness figure compared with a metric's bound.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
