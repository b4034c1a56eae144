package benchkit

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median of an even sample = %v, want 2.5", got)
	}
}

// The tail rule: never report a percentile with fewer than ten samples
// beyond it; drop to the highest level that has them and say which.
func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	// 2,000 samples support p99 (20 beyond).
	tail := TailPercentile(seq(2000), 99, 10)
	if tail.Percentile != 99 || tail.Value != 1980 || tail.Beyond != 20 || tail.N != 2000 {
		t.Errorf("2000 samples: %+v, want p99 = 1980 with 20 beyond", tail)
	}
	// 500 samples have only 5 beyond p99: the level drops to p98.
	tail = TailPercentile(seq(500), 99, 10)
	if tail.Value != 490 || tail.Beyond != 10 || math.Abs(tail.Percentile-98) > 1e-9 {
		t.Errorf("500 samples: %+v, want p98 = 490 with 10 beyond", tail)
	}
	// 8 samples support no percentile at all: the maximum, marked as such.
	tail = TailPercentile(seq(8), 99, 10)
	if tail.Value != 8 || tail.Percentile != 100 || tail.Beyond != 0 || tail.N != 8 {
		t.Errorf("8 samples: %+v, want the maximum", tail)
	}
	if got := TailPercentile(nil, 99, 10); got != (Tail{}) {
		t.Errorf("empty sample: %+v, want zero", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is how the benchmark's acceptance spread is defined.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25}, // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{seq(11), 3, 9},
		{[]float64{10, 12}, 9.5, 12.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := Quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := Spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, _ := Quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("Quartiles of one value = %v, want NaN", q1)
	}
}
