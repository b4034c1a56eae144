package obs

import (
	"math"
	"slices"
	"testing"

	"harassrepro/internal/testutil"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "requests", L("route", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.NewGauge("temp", "temperature")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatalf("gauge should hold +Inf, got %v", g.Value())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x", L("k", "v"))
	b := r.NewCounter("x_total", "ignored on re-registration", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.NewCounter("x_total", "x", L("k", "w"))
	if a == other {
		t.Fatal("different label values must be distinct instruments")
	}

	h1 := r.NewHistogram("lat", "latency", []int64{1, 2, 3})
	h2 := r.NewHistogram("lat", "latency", []int64{9, 99})
	if h1 != h2 {
		t.Fatal("histogram re-registration must return the original")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter's key must panic")
		}
	}()
	r.NewGauge("x_total", "x", L("k", "v"))
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_ns", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10, 11, 100, 500, 1000, 1001, 1 << 40} {
		h.Observe(v)
	}
	if got := h.Count(); got != 9 {
		t.Fatalf("count = %d, want 9", got)
	}
	wantSum := int64(-5 + 0 + 10 + 11 + 100 + 500 + 1000 + 1001 + 1<<40)
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	// Bucket occupancy: (-inf,10] = 3, (10,100] = 2, (100,1000] = 2, +Inf = 2.
	want := []uint64{3, 2, 2, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestDefaultBucketLayouts(t *testing.T) {
	bounds := DurationBuckets()
	if len(bounds) == 0 {
		t.Fatal("duration buckets empty")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("duration buckets not strictly increasing at %d: %v", i, bounds)
		}
	}
}

func TestSnapshotFind(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "b").Add(2)
	r.NewCounter("a_total", "a", L("stage", "x")).Add(7)
	r.NewCounter("a_total", "a", L("stage", "w"))
	s := r.Snapshot()
	if len(s.Metrics) != 3 || s.Metrics[0].Name != "a_total" || s.Metrics[2].Name != "b_total" {
		t.Fatalf("snapshot not sorted by name: %+v", s.Metrics)
	}
	if got := counterValue(s, "a_total", L("stage", "x")); got != 7 {
		t.Fatalf("a_total{stage=x} = %v, want 7", got)
	}
	if got := s.Metrics[0].Labels; len(got) != 1 || got[0] != L("stage", "w") {
		t.Fatalf("series not sorted by labels within a name: %+v", s.Metrics)
	}
	if _, ok := findMetric(s, "a_total", L("stage", "y")); ok {
		t.Fatal("different label values must not match")
	}
}

// findMetric returns the snapshot entry for (name, labels), if present.
func findMetric(s Snapshot, name string, labels ...Label) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && slices.Equal(m.Labels, labels) {
			return m, true
		}
	}
	return Metric{}, false
}

// counterValue returns a counter's (or gauge's) value in s, or 0 when
// it is absent.
func counterValue(s Snapshot, name string, labels ...Label) float64 {
	if m, ok := findMetric(s, name, labels...); ok && m.Value != nil {
		return float64(*m.Value)
	}
	return 0
}

// TestMetricAllocs gates the hot-path mutations at zero allocations:
// the whole point of pre-registered handles is that observing never
// touches the heap.
func TestMetricAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	g := r.NewGauge("g", "g")
	h := r.NewHistogram("h_ns", "h", DurationBuckets())
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(3.5)
		h.Observe(12345)
	}); n > 0 {
		t.Errorf("hot-path mutations allocate %v per op, want 0", n)
	}
}
