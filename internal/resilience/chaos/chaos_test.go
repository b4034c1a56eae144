package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
)

type item struct {
	ID    string
	Text  string
	Score float64
}

func makeItems(n int) []item {
	out := make([]item, n)
	for i := range out {
		out[i] = item{ID: fmt.Sprintf("i%03d", i), Text: strings.Repeat("x", 40)}
	}
	return out
}

func scoreStage() resilience.Stage[item] {
	return resilience.Stage[item]{
		Name:      "score",
		Transient: true,
		Fn: func(_ context.Context, index int, it *item) error {
			it.Score = float64(index) * 0.25
			return nil
		},
	}
}

// maxAttempts is the retry budget the chaotic runs absorb faults with.
const maxAttempts = 6

// withDeadline bounds every attempt of st with its own deadline d,
// which cuts an injected latency spike short.
func withDeadline[T any](st resilience.Stage[T], d time.Duration) resilience.Stage[T] {
	inner := st.Fn
	st.Fn = func(ctx context.Context, index int, it *T) error {
		ctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		return inner(ctx, index, it)
	}
	return st
}

// TestInjectionDeterministic: two identical chaotic runs make identical
// injection decisions and produce identical outcomes.
func TestInjectionDeterministic(t *testing.T) {
	run := func(workers int) ([]resilience.Result[item], resilience.Summary) {
		cfg := Config{Seed: 77, TransientRate: 0.2, PanicRate: 0.05, PermanentRate: 0.08}
		r := resilience.NewRunner(resilience.Config[item]{Workers: workers, MaxAttempts: maxAttempts},
			Wrap(scoreStage(), cfg))
		results, sum, err := r.RunSlice(context.Background(), makeItems(120))
		if err != nil {
			t.Fatal(err)
		}
		return results, sum
	}
	r1, s1 := run(1)
	r2, s2 := run(8)
	if s1.String() != s2.String() {
		t.Fatalf("summaries differ across worker counts: %v vs %v", s1, s2)
	}
	for i := range r1 {
		if r1[i].Status != r2[i].Status || r1[i].Item.Score != r2[i].Item.Score {
			t.Fatalf("item %d differs across worker counts: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestPoisonItemsQuarantinedExactly: the quarantine set is exactly
// poisonIndexes, and every poison item exhausts the retry budget.
func TestPoisonItemsQuarantinedExactly(t *testing.T) {
	cfg := Config{Seed: 5, TransientRate: 0.05, PanicRate: 0.01, PermanentRate: 0.1}
	n := 200
	want := poisonIndexes(cfg, "score", n)
	if len(want) == 0 || len(want) == n {
		t.Fatalf("degenerate poison set: %d of %d", len(want), n)
	}
	r := resilience.NewRunner(resilience.Config[item]{Workers: 6, MaxAttempts: maxAttempts},
		Wrap(scoreStage(), cfg))
	results, sum, err := r.RunSlice(context.Background(), makeItems(n))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, res := range results {
		if res.Status == resilience.StatusQuarantined {
			got = append(got, res.Index)
			if res.Dead.Attempts != 6 {
				t.Errorf("poison item %d quarantined after %d attempts, want 6", res.Index, res.Dead.Attempts)
			}
			if !errors.Is(res.Dead.Err, ErrInjected) {
				t.Errorf("dead letter not marked injected: %v", res.Dead.Err)
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quarantined %v, want exactly poison set %v", got, want)
	}
	if sum.Quarantined != len(want) || sum.Succeeded != n-len(want) {
		t.Fatalf("summary = %v", sum)
	}
}

// TestTransientAndPanicFaultsAreAbsorbed: with moderate transient and
// panic rates and no poison items, every item completes with the same
// score a fault-free run produces.
func TestTransientAndPanicFaultsAreAbsorbed(t *testing.T) {
	n := 150
	clean := resilience.NewRunner(resilience.Config[item]{Workers: 4, MaxAttempts: maxAttempts}, scoreStage())
	cleanRes, _, err := clean.RunSlice(context.Background(), makeItems(n))
	if err != nil {
		t.Fatal(err)
	}
	chaotic := resilience.NewRunner(resilience.Config[item]{Workers: 4, MaxAttempts: maxAttempts},
		Wrap(scoreStage(), Config{Seed: 9, TransientRate: 0.1, PanicRate: 0.02}))
	chaosRes, sum, err := chaotic.RunSlice(context.Background(), makeItems(n))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 0 || sum.Succeeded != n {
		t.Fatalf("faults leaked through retries: %v", sum)
	}
	for i := range cleanRes {
		if cleanRes[i].Item.Score != chaosRes[i].Item.Score {
			t.Fatalf("item %d: chaotic score %v != clean score %v", i, chaosRes[i].Item.Score, cleanRes[i].Item.Score)
		}
	}
}

// TestLatencySpikesCutByStageDeadline: injected latency above the
// stage deadline turns into a retryable timeout, and the run still
// completes with correct results.
func TestLatencySpikesCutByStageDeadline(t *testing.T) {
	st := scoreStage()
	var calls atomic.Int64
	inner := st.Fn
	st.Fn = func(ctx context.Context, index int, it *item) error {
		calls.Add(1)
		return inner(ctx, index, it)
	}
	r := resilience.NewRunner(resilience.Config[item]{Workers: 4, MaxAttempts: maxAttempts},
		withDeadline(Wrap(st, Config{Seed: 13, LatencyRate: 0.3, Latency: 50 * time.Millisecond}), 3*time.Millisecond))
	results, sum, err := r.RunSlice(context.Background(), makeItems(40))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Succeeded != 40 {
		t.Fatalf("latency spikes caused loss: %v", sum)
	}
	for _, res := range results {
		if res.Item.Score != float64(res.Index)*0.25 {
			t.Fatalf("item %d score %v", res.Index, res.Item.Score)
		}
	}
}

// TestTruncationCorruptsOnlyInjectedAttempts: truncated input reaches
// the stage, which can reject it (Permanent) so the item quarantines,
// proving the harness exercises the malformed-input path.
func TestTruncationCorruptsOnlyInjectedAttempts(t *testing.T) {
	st := resilience.Stage[item]{
		Name: "parse",
		Fn: func(_ context.Context, _ int, it *item) error {
			if len(it.Text) < 40 {
				return resilience.Permanent(errors.New("truncated input"))
			}
			it.Score = 1
			return nil
		},
	}
	cfg := Config{Seed: 21, TruncateRate: 0.15, Truncate: func(v any) {
		it := v.(*item)
		it.Text = it.Text[:len(it.Text)/2]
	}}
	r := resilience.NewRunner(resilience.Config[item]{Workers: 4, MaxAttempts: maxAttempts}, Wrap(st, cfg))
	results, sum, err := r.RunSlice(context.Background(), makeItems(100))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined == 0 || sum.Quarantined == 100 {
		t.Fatalf("truncation rate not exercised: %v", sum)
	}
	// Non-quarantined items kept their full text: the truncating
	// attempt's copy never leaked into committed state.
	for _, res := range results {
		if res.Status == resilience.StatusOK && len(res.Item.Text) != 40 {
			t.Fatalf("committed item %d has truncated text", res.Index)
		}
	}
}

// The attempt map holds an entry only for an item whose stage has not
// succeeded: it does not grow with the traffic of a long-lived process.
func TestAttemptMapDoesNotGrowWithTraffic(t *testing.T) {
	cfg := Config{Seed: 3, TransientRate: 0.3, PanicRate: 0.1, PermanentRate: 0.05}
	counter := &attemptCounter{}
	st := wrap(scoreStage(), cfg, counter)
	r := resilience.NewRunner(resilience.Config[item]{MaxAttempts: maxAttempts}, st)
	const n = 2000
	quarantined := 0
	for i := 0; i < n; i++ {
		if res := r.RunItem(context.Background(), i, item{}); res.Dead != nil {
			quarantined++
		}
	}
	counter.mu.Lock()
	held := len(counter.n)
	counter.mu.Unlock()
	poison := len(poisonIndexes(cfg, st.Name, n))
	if quarantined <= poison {
		t.Fatalf("degenerate run: %d quarantined, %d of them poison", quarantined, poison)
	}
	// Poison items never enter the map; the others that were quarantined
	// exhausted their retries and are all it still holds.
	if held != quarantined-poison {
		t.Errorf("attempt map holds %d entries after %d items, want %d (quarantined %d - poison %d)",
			held, n, quarantined-poison, quarantined, poison)
	}
}

// poisonIndexes returns the item indexes in [0, n) that cfg marks as
// permanently failing for the given stage name — the exact quarantine
// set a chaotic run must produce.
func poisonIndexes(cfg Config, stageName string, n int) []int {
	base := randx.New(cfg.Seed).Split("chaos").Split(stageName)
	var out []int
	for i := 0; i < n; i++ {
		if cfg.PermanentRate > 0 && base.SplitN("item", i).Split("poison").Bool(cfg.PermanentRate) {
			out = append(out, i)
		}
	}
	return out
}
