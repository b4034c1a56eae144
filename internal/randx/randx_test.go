package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("alpha")
	c2 := root.Split("beta")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different labels produced identical first output")
	}
	// Splitting must not advance the parent.
	r1 := New(7)
	r1.Split("anything")
	r2 := New(7)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestSplitNStability(t *testing.T) {
	root := New(9)
	a := root.SplitN("doc", 5).Uint64()
	b := root.SplitN("doc", 5).Uint64()
	c := root.SplitN("doc", 6).Uint64()
	if a != b {
		t.Fatal("SplitN with identical args not stable")
	}
	if a == c {
		t.Fatal("SplitN with different index collided")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange(-3,3) = %d", v)
		}
	}
	if got := s.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d, want 5", got)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(19)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(31)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(1, 2); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestPick(t *testing.T) {
	s := New(37)
	items := []string{"a", "b", "c"}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[Pick(s, items)]++
	}
	for _, it := range items {
		if counts[it] < 800 {
			t.Fatalf("Pick heavily skewed: %v", counts)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	err := quick.Check(func(seed uint64, raw []int) bool {
		s := New(seed)
		cp := make([]int, len(raw))
		copy(cp, raw)
		Shuffle(s, cp)
		before := map[int]int{}
		after := map[int]int{}
		for _, v := range raw {
			before[v]++
		}
		for _, v := range cp {
			after[v]++
		}
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if after[k] != v {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDistribution(t *testing.T) {
	s := New(43)
	w := NewWeighted([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[w.Sample(s)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weighted ratio = %v, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeighted(%v) did not panic", c)
				}
			}()
			NewWeighted(c)
		}()
	}
}

func TestSampleWeightedOneShot(t *testing.T) {
	s := New(47)
	for i := 0; i < 100; i++ {
		if got := NewWeighted([]float64{0, 1, 0}).Sample(s); got != 1 {
			t.Fatalf("one-shot Sample picked zero-weight index %d", got)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkWeightedSample(b *testing.B) {
	s := New(1)
	w := NewWeighted([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Sample(s)
	}
}
