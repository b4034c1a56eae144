package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanMedianStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Median(xs); got != 4.5 {
		t.Errorf("Median = %v, want 4.5", got)
	}
	// Sample stddev with n-1: variance = 32/7.
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Error("empty-input descriptive stats should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of a single value should be NaN")
	}
	min, max := MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Error("MinMax of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range quantile should be NaN")
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("singleton quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Mean != 22 || s.Median != 3 || s.Min != 1 || s.Max != 100 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestLogClampsNonPositive(t *testing.T) {
	out := Log([]float64{math.E, 0, -5})
	if !almostEqual(out[0], 1, 1e-12) {
		t.Errorf("Log(e) = %v", out[0])
	}
	if math.IsInf(out[1], -1) || math.IsNaN(out[2]) {
		t.Error("Log did not clamp non-positive inputs")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{2, 1, 3, 2})
	// P(X <= x) at each distinct sample value, ties counted once.
	xs, ps := e.Points()
	if !slices.Equal(xs, []float64{1, 2, 3}) || !slices.Equal(ps, []float64{0.25, 0.75, 1}) {
		t.Errorf("Points = %v %v", xs, ps)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	xs, ps := e.Points()
	if xs != nil || ps != nil {
		t.Error("empty ECDF Points should be nil")
	}
}

func TestECDFProperties(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		clean := raw[:0:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		// The CDF steps up at every distinct value, stays in (0, 1] and
		// reaches 1 at the maximum.
		xs, ps := NewECDF(clean).Points()
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] || ps[i] <= ps[i-1] {
				return false
			}
		}
		min, max := MinMax(clean)
		return xs[0] == min && xs[len(xs)-1] == max && ps[0] > 0 && ps[len(ps)-1] == 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
