package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs, or NaN for
// fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs, or NaN for empty input.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics, or NaN for empty input or q
// outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// MinMax returns the minimum and maximum of xs, or (NaN, NaN) for empty
// input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Summary bundles the descriptive statistics the paper reports for thread
// positions and sizes (median, mean, standard deviation).
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Max:    max,
	}
}

// Log applies the natural logarithm element-wise, as the paper does to
// thread sizes before t-testing ("pairwise t-test on the log of the size of
// the threads"). Non-positive values are clamped to lnFloor to keep the
// transform total.
func Log(xs []float64) []float64 {
	const lnFloor = 1e-9
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < lnFloor {
			x = lnFloor
		}
		out[i] = math.Log(x)
	}
	return out
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample xs.
func NewECDF(xs []float64) *ECDF {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &ECDF{sorted: cp}
}

// Points returns (x, cdf) pairs evaluated at each distinct sample value,
// suitable for plotting the CDF as the paper does in Figure 5.
func (e *ECDF) Points() (xs, ps []float64) {
	n := len(e.sorted)
	if n == 0 {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		if i+1 < n && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(i+1)/float64(n))
	}
	return xs, ps
}
