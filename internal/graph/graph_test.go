package graph

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"harassrepro/internal/obs"
)

func TestMemoizedOnce(t *testing.T) {
	g := New(Config{Seed: 1})
	var calls atomic.Int64
	g.Register("a", nil, func() (any, error) {
		calls.Add(1)
		return 42, nil
	})
	for i := 0; i < 5; i++ {
		v, err := g.Get("a")
		if err != nil || v.(int) != 42 {
			t.Fatalf("get %d: %v, %v", i, v, err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("computed %d times, want 1", calls.Load())
	}
	st := g.Stats()
	if len(st) != 1 || st[0].Computes != 1 || st[0].Hits != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDependencyResolution(t *testing.T) {
	g := New(Config{})
	var order []string
	var mu sync.Mutex
	mark := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	g.Register("base", nil, func() (any, error) { mark("base"); return 1, nil })
	g.Register("mid", []string{"base"}, func() (any, error) {
		mark("mid")
		v, err := GetAs[int](g, "base")
		return v + 1, err
	})
	g.Register("top", []string{"mid"}, func() (any, error) {
		mark("top")
		v, err := GetAs[int](g, "mid")
		return v + 1, err
	})
	v, err := GetAs[int](g, "top")
	if err != nil || v != 3 {
		t.Fatalf("top = %v, %v", v, err)
	}
	want := []string{"base", "mid", "top"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("compute order %v, want %v", order, want)
	}
}

func TestConcurrentGetComputesOnce(t *testing.T) {
	g := New(Config{})
	var calls atomic.Int64
	release := make(chan struct{})
	g.Register("slow", nil, func() (any, error) {
		calls.Add(1)
		<-release
		return "done", nil
	})
	var wg sync.WaitGroup
	results := make([]string, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := GetAs[string](g, "slow")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("computed %d times under contention, want 1", calls.Load())
	}
	for i, r := range results {
		if r != "done" {
			t.Fatalf("goroutine %d saw %q", i, r)
		}
	}
}

func TestErrorMemoized(t *testing.T) {
	g := New(Config{})
	var calls atomic.Int64
	boom := errors.New("boom")
	g.Register("bad", nil, func() (any, error) {
		calls.Add(1)
		return nil, boom
	})
	g.Register("dependent", []string{"bad"}, func() (any, error) { return 1, nil })
	for i := 0; i < 3; i++ {
		if _, err := g.Get("bad"); !errors.Is(err, boom) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("failing node computed %d times, want 1", calls.Load())
	}
	// Dependents see the dependency's failure, wrapped with both names.
	_, err := g.Get("dependent")
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("dependent error = %v", err)
	}
	if !strings.Contains(err.Error(), "dependent") || !strings.Contains(err.Error(), "bad") {
		t.Errorf("error lacks node names: %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	g := New(Config{})
	g.Register("explode", nil, func() (any, error) { panic("kaboom") })
	_, err := g.Get("explode")
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", err)
	}
	// Memoized: later Gets see the same error without re-running.
	_, err2 := g.Get("explode")
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("panic error not memoized: %v", err2)
	}
}

func TestRegisterValidation(t *testing.T) {
	g := New(Config{})
	g.Register("a", nil, func() (any, error) { return nil, nil })
	for name, reg := range map[string]func(){
		"duplicate":   func() { g.Register("a", nil, nil) },
		"unknown-dep": func() { g.Register("b", []string{"nope"}, nil) },
		"forward-ref": func() { g.Register("c", []string{"d"}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			reg()
		}()
	}
	if _, err := g.Get("missing"); err == nil {
		t.Error("Get of unknown node should error")
	}
}

func TestPrefetchParallelAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Config{Seed: 7, Fingerprint: "test", Metrics: reg, Workers: 4})
	var calls atomic.Int64
	g.Register("root", nil, func() (any, error) { calls.Add(1); return 0, nil })
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("leaf-%d", i)
		g.Register(name, []string{"root"}, func() (any, error) {
			calls.Add(1)
			_, err := g.Get("root")
			return name, err
		})
	}
	if err := g.Prefetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 7 {
		t.Errorf("computed %d times, want 7 (each node exactly once)", calls.Load())
	}
	snap := reg.Snapshot()
	if v := counterValue(snap, "graph_stage_computes_total", obs.L("stage", "root")); v != 1 {
		t.Errorf("root computes = %v, want 1", v)
	}
	// Six leaves each read root after (or while) something computed it.
	if v := counterValue(snap, "graph_stage_hits_total", obs.L("stage", "root")); v < 6 {
		t.Errorf("root hits = %v, want >= 6", v)
	}
	if m, ok := findMetric(snap, "graph_stage_compute_ns", obs.L("stage", "root")); !ok || m.Count != 1 {
		t.Errorf("root latency histogram: %+v, %v", m, ok)
	}
}

func TestPrefetchCombinedErrors(t *testing.T) {
	g := New(Config{Workers: 2})
	g.Register("ok", nil, func() (any, error) { return 1, nil })
	g.Register("bad-1", nil, func() (any, error) { return nil, errors.New("first") })
	g.Register("bad-2", nil, func() (any, error) { panic("second") })
	err := g.Prefetch(context.Background())
	var ge *Errors
	if !errors.As(err, &ge) {
		t.Fatalf("want *Errors, got %v", err)
	}
	if len(ge.Failed) != 2 {
		t.Fatalf("failed = %v", ge.Failed)
	}
	msg := ge.Error()
	if !strings.Contains(msg, "bad-1") || !strings.Contains(msg, "bad-2") ||
		!strings.Contains(msg, "first") || !strings.Contains(msg, "second") {
		t.Errorf("combined error missing detail:\n%s", msg)
	}
	// The healthy node still computed.
	if v, err := GetAs[int](g, "ok"); err != nil || v != 1 {
		t.Errorf("ok = %v, %v", v, err)
	}
}

func TestKeyAndFingerprint(t *testing.T) {
	f1 := Fingerprint(struct{ A, B int }{1, 2})
	f2 := Fingerprint(struct{ A, B int }{1, 2})
	f3 := Fingerprint(struct{ A, B int }{1, 3})
	if f1 != f2 {
		t.Error("fingerprint not stable")
	}
	if f1 == f3 {
		t.Error("fingerprint ignores values")
	}
	g := New(Config{Seed: 9, Fingerprint: f1})
	g.Register("n", nil, func() (any, error) { return nil, nil })
	if want := "n@9+" + f1; g.Key("n") != want {
		t.Errorf("key = %q, want %q", g.Key("n"), want)
	}
}

func TestGetAsTypeMismatch(t *testing.T) {
	g := New(Config{})
	g.Register("s", nil, func() (any, error) { return "str", nil })
	if _, err := GetAs[int](g, "s"); err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("type mismatch not reported: %v", err)
	}
}

// findMetric returns the snapshot entry for (name, labels), if present.
func findMetric(s obs.Snapshot, name string, labels ...obs.Label) (obs.Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && slices.Equal(m.Labels, labels) {
			return m, true
		}
	}
	return obs.Metric{}, false
}

// counterValue returns a counter's (or gauge's) value in s, or 0 when
// it is absent.
func counterValue(s obs.Snapshot, name string, labels ...obs.Label) float64 {
	if m, ok := findMetric(s, name, labels...); ok && m.Value != nil {
		return float64(*m.Value)
	}
	return 0
}
