package obs

// Concurrency hammer tests, run under -race in scripts/check.sh: many
// writers mutating shared instruments while a reader snapshots, then an
// exact-total check once the writers have joined. The registry's
// correctness claim is precisely this pair: concurrent mutation is
// always safe, and quiescent reads are exact.

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryConcurrentMutationVsSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "hammer")
	g := r.NewGauge("hammer_gauge", "hammer")
	h := r.NewHistogram("hammer_ns", "hammer", []int64{10, 100, 1000})

	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Reader: snapshot and encode continuously while writers run.
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if len(s.Metrics) != 3 {
				t.Errorf("snapshot saw %d metrics, want 3", len(s.Metrics))
				return
			}
			var sb strings.Builder
			if err := writeProm(&sb, s); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(int64(i % 2000))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	if got := c.Value(); got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	if got := g.Value(); got != float64(int(got)) || got < 0 || got >= writers {
		t.Errorf("gauge = %v, want the last writer's id in [0, %d)", got, writers)
	}
	if got := h.Count(); got != writers*perG {
		t.Errorf("histogram count = %d, want %d", got, writers*perG)
	}
	var wantSum int64
	for i := 0; i < perG; i++ {
		wantSum += int64(i % 2000)
	}
	wantSum *= writers
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	counters := make([]*Counter, writers)
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			// Every goroutine registers the same instrument and a
			// private one, then mutates both.
			shared := r.NewCounter("shared_total", "shared")
			counters[w] = shared
			own := r.NewCounter("own_total", "own", L("w", string(rune('a'+w))))
			for i := 0; i < 1000; i++ {
				shared.Inc()
				own.Inc()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < writers; w++ {
		if counters[w] != counters[0] {
			t.Fatal("concurrent registration returned distinct instruments for one key")
		}
	}
	if got := counters[0].Value(); got != writers*1000 {
		t.Errorf("shared counter = %d, want %d", got, writers*1000)
	}
	s := r.Snapshot()
	if len(s.Metrics) != writers+1 {
		t.Errorf("snapshot has %d metrics, want %d", len(s.Metrics), writers+1)
	}
}
