package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harassrepro/internal/randx"
)

// doc is the test item type: a tiny document with annotation fields.
type doc struct {
	ID    string
	Text  string
	Score float64
	Tags  []string
}

func makeDocs(n int) []doc {
	out := make([]doc, n)
	for i := range out {
		out[i] = doc{ID: fmt.Sprintf("d%03d", i), Text: fmt.Sprintf("document %d body", i)}
	}
	return out
}

func TestRunSliceAllSucceed(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 4, MaxAttempts: 4},
		Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
			d.Score = float64(index) + 0.5
			return nil
		}},
		Stage[doc]{Name: "tag", Fn: func(_ context.Context, _ int, d *doc) error {
			d.Tags = []string{"t:" + d.ID}
			return nil
		}},
	)
	results, sum, err := r.RunSlice(context.Background(), makeDocs(100))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Processed != 100 || sum.Succeeded != 100 || sum.Quarantined != 0 || sum.Degraded != 0 {
		t.Fatalf("summary = %v", sum)
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d has index %d: not input order", i, res.Index)
		}
		if res.Status != StatusOK || res.Item.Score != float64(i)+0.5 || len(res.Item.Tags) != 1 {
			t.Fatalf("result %d = %+v", i, res)
		}
	}
}

func TestQuarantineIsolatesPoisonDocuments(t *testing.T) {
	poison := func(i int) bool { return i%17 == 3 }
	r := NewRunner(Config[doc]{Workers: 8, MaxAttempts: 4,
		Describe: func(d *doc) string { return d.ID }},
		Stage[doc]{Name: "parse", Fn: func(_ context.Context, index int, d *doc) error {
			if poison(index) {
				return fmt.Errorf("unparseable document %d", index)
			}
			d.Score = 1
			return nil
		}},
	)
	results, sum, err := r.RunSlice(context.Background(), makeDocs(60))
	if err != nil {
		t.Fatal(err)
	}
	wantDead := 0
	for i := 0; i < 60; i++ {
		if poison(i) {
			wantDead++
		}
	}
	if sum.Quarantined != wantDead || sum.Succeeded != 60-wantDead {
		t.Fatalf("summary = %v, want %d quarantined", sum, wantDead)
	}
	for _, res := range results {
		if poison(res.Index) {
			if res.Status != StatusQuarantined || res.Dead == nil {
				t.Fatalf("poison doc %d not quarantined: %+v", res.Index, res)
			}
			if res.Dead.Stage != "parse" || res.Dead.ID != res.Item.ID || res.Dead.Attempts != 1 {
				t.Fatalf("dead letter = %+v", res.Dead)
			}
		} else if res.Status != StatusOK {
			t.Fatalf("healthy doc %d got %v", res.Index, res.Status)
		}
	}
	// Dead letters arrive sorted by input index.
	for i := 1; i < len(sum.DeadLetters); i++ {
		if sum.DeadLetters[i].Index <= sum.DeadLetters[i-1].Index {
			t.Fatal("dead letters not sorted by index")
		}
	}
	if !strings.Contains(sum.DeadLetters[0].String(), "parse") {
		t.Errorf("dead letter string lacks stage: %s", sum.DeadLetters[0])
	}
}

func TestPanicRecoveryQuarantinesNotCrashes(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 4, MaxAttempts: 4},
		Stage[doc]{Name: "boom", Fn: func(_ context.Context, index int, d *doc) error {
			if index == 5 {
				panic("nil pointer dereference simulation")
			}
			return nil
		}},
	)
	results, sum, err := r.RunSlice(context.Background(), makeDocs(10))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 || sum.Succeeded != 9 {
		t.Fatalf("summary = %v", sum)
	}
	dead := results[5]
	if dead.Status != StatusQuarantined {
		t.Fatalf("panicking doc not quarantined: %+v", dead)
	}
	var pe *PanicError
	if !errors.As(dead.Dead.Err, &pe) {
		t.Fatalf("dead letter error is %T, want *PanicError", dead.Dead.Err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "nil pointer") {
		t.Errorf("panic error incomplete: %v", pe)
	}
}

func TestTransientRetrySucceedsAndCountsAttempts(t *testing.T) {
	var attempts atomic.Int64
	r2 := NewRunner(Config[doc]{Workers: 1, MaxAttempts: 4},
		Stage[doc]{Name: "flaky", Transient: true, Fn: func(_ context.Context, _ int, d *doc) error {
			if attempts.Add(1) < 3 {
				return errors.New("temporary backend hiccup")
			}
			d.Score = 7
			return nil
		}},
	)
	results, sum, err := r2.RunSlice(context.Background(), makeDocs(1))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Succeeded != 1 || results[0].Item.Score != 7 {
		t.Fatalf("flaky stage did not recover: %v %+v", sum, results[0])
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestRetryExhaustionRecordsAttemptCount(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 2, MaxAttempts: 4},
		Stage[doc]{Name: "alwaysdown", Transient: true, Fn: func(_ context.Context, _ int, _ *doc) error {
			return errors.New("backend unreachable")
		}},
	)
	results, sum, err := r.RunSlice(context.Background(), makeDocs(3))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 3 {
		t.Fatalf("summary = %v", sum)
	}
	for _, res := range results {
		if res.Dead.Attempts != 4 {
			t.Fatalf("attempts = %d, want MaxAttempts=4", res.Dead.Attempts)
		}
	}
}

func TestErrorMarkersOverrideStagePolicy(t *testing.T) {
	// Permanent marker inside a transient stage fails fast.
	var permCalls atomic.Int64
	r := NewRunner(Config[doc]{Workers: 1, MaxAttempts: 4},
		Stage[doc]{Name: "validate", Transient: true, Fn: func(_ context.Context, _ int, _ *doc) error {
			permCalls.Add(1)
			return Permanent(errors.New("schema violation"))
		}},
	)
	_, sum, _ := r.RunSlice(context.Background(), makeDocs(1))
	if sum.Quarantined != 1 || permCalls.Load() != 1 {
		t.Fatalf("permanent marker retried: calls=%d sum=%v", permCalls.Load(), sum)
	}
	// Transient marker inside a non-transient stage retries.
	var transCalls atomic.Int64
	r2 := NewRunner(Config[doc]{Workers: 1, MaxAttempts: 4},
		Stage[doc]{Name: "strict", Fn: func(_ context.Context, _ int, d *doc) error {
			if transCalls.Add(1) < 2 {
				return Transient(errors.New("blip"))
			}
			return nil
		}},
	)
	_, sum2, _ := r2.RunSlice(context.Background(), makeDocs(1))
	if sum2.Succeeded != 1 || transCalls.Load() != 2 {
		t.Fatalf("transient marker not retried: calls=%d sum=%v", transCalls.Load(), sum2)
	}
	if !IsTransient(Transient(errors.New("x"))) || !IsPermanent(Permanent(errors.New("x"))) {
		t.Error("marker predicates broken")
	}
	if Transient(nil) != nil || Permanent(nil) != nil {
		t.Error("nil markers should stay nil")
	}
}

// RunItem on the caller's goroutine gives each item exactly what
// RunSlice gives it at the same (seed, index): status, committed item
// state, degradation marks, dead letter and attempt count, for ok,
// degraded, quarantined, panicking and retried items alike.
func TestRunItemMatchesRunSlice(t *testing.T) {
	// Stages are pure functions of (index, attempt); the attempt number
	// is kept per run, so the two runs see the same fault schedule.
	newRunner := func() *Runner[doc] {
		var attempts [40][2]atomic.Int64
		return NewRunner(Config[doc]{Workers: 4, MaxAttempts: 4, Describe: func(d *doc) string { return d.ID }},
			Stage[doc]{Name: "score", Transient: true, Fn: func(_ context.Context, index int, d *doc) error {
				attempt := attempts[index][0].Add(1)
				d.Tags = append(d.Tags[:len(d.Tags):len(d.Tags)], fmt.Sprintf("score#%d", attempt))
				switch {
				case index%8 == 3: // quarantined: never succeeds
					return errors.New("poison")
				case index%8 == 5: // quarantined by a panic on every attempt
					panic("boom")
				case index%8 == 6 && attempt < 3: // retried, then ok
					return Transient(errors.New("flaky"))
				case index%8 == 7 && attempt == 1: // one panic, then ok
					panic(Transient(errors.New("flaky panic")))
				}
				d.Score = randx.New(11).SplitN("score", index).Float64()
				return nil
			}},
			Stage[doc]{Name: "annotate", Degradable: true, Fn: func(_ context.Context, index int, d *doc) error {
				attempts[index][1].Add(1)
				if index%4 == 1 { // degraded
					return Permanent(errors.New("annotator down"))
				}
				d.Tags = append(d.Tags[:len(d.Tags):len(d.Tags)], "annotated")
				return nil
			}},
		)
	}
	docs := makeDocs(40)
	want, sum, err := newRunner().RunSlice(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 10 || sum.Degraded == 0 || sum.Succeeded != 30 {
		t.Fatalf("degenerate reference run: %v", sum)
	}
	sync := newRunner()
	for i := range docs {
		got := sync.RunItem(context.Background(), i, docs[i])
		w := want[i]
		if got.Index != w.Index || got.Status != w.Status || fmt.Sprint(got.Degraded) != fmt.Sprint(w.Degraded) ||
			got.Item.ID != w.Item.ID || got.Item.Score != w.Item.Score || fmt.Sprint(got.Item.Tags) != fmt.Sprint(w.Item.Tags) {
			t.Errorf("item %d: RunItem = %+v, RunSlice = %+v", i, got, w)
		}
		if (got.Dead == nil) != (w.Dead == nil) {
			t.Errorf("item %d: dead letter %v vs %v", i, got.Dead, w.Dead)
		} else if got.Dead != nil && got.Dead.String() != w.Dead.String() {
			t.Errorf("item %d: dead letter %q, RunSlice %q", i, got.Dead, w.Dead)
		}
	}
}

func TestDegradationEmitsInsteadOfDropping(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 4, MaxAttempts: 4},
		Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
			d.Score = float64(index)
			return nil
		}},
		Stage[doc]{Name: "pii", Degradable: true, Fn: func(_ context.Context, index int, d *doc) error {
			if index%2 == 0 {
				return errors.New("extractor crashed")
			}
			d.Tags = append([]string{}, "pii-ok")
			return nil
		}},
	)
	results, sum, err := r.RunSlice(context.Background(), makeDocs(10))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 0 || sum.Succeeded != 10 || sum.Degraded != 5 {
		t.Fatalf("summary = %v", sum)
	}
	for _, res := range results {
		if res.Index%2 == 0 {
			if res.Status != StatusDegraded || len(res.Degraded) != 1 || res.Degraded[0] != "pii" {
				t.Fatalf("doc %d not degraded correctly: %+v", res.Index, res)
			}
			// The earlier stage's work is preserved.
			if res.Item.Score != float64(res.Index) {
				t.Fatalf("degraded doc %d lost score", res.Index)
			}
		} else if res.Status != StatusOK {
			t.Fatalf("doc %d status %v", res.Index, res.Status)
		}
	}
}

func TestFailedAttemptDoesNotCommitPartialMutation(t *testing.T) {
	var attempts atomic.Int64
	r := NewRunner(Config[doc]{Workers: 1, MaxAttempts: 4},
		Stage[doc]{Name: "mutator", Transient: true, Fn: func(_ context.Context, _ int, d *doc) error {
			d.Text = d.Text + "+garbage" // mutate, then maybe fail
			if attempts.Add(1) < 3 {
				return errors.New("failed after partial write")
			}
			return nil
		}},
	)
	results, _, err := r.RunSlice(context.Background(), makeDocs(1))
	if err != nil {
		t.Fatal(err)
	}
	// Only the successful attempt's single mutation is visible.
	if got := results[0].Item.Text; strings.Count(got, "+garbage") != 1 {
		t.Fatalf("partial mutations leaked across retries: %q", got)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	r := NewRunner(Config[doc]{Workers: 2, MaxAttempts: 4},
		Stage[doc]{Name: "gate", Fn: func(ctx context.Context, _ int, _ *doc) error {
			if started.Add(1) == 4 {
				cancel()
			}
			return ctx.Err()
		}},
	)
	results, _, err := r.RunSlice(ctx, makeDocs(1000))
	if err == nil {
		t.Fatal("expected context error")
	}
	if len(results) >= 1000 {
		t.Fatalf("cancellation did not stop intake: %d results", len(results))
	}
}

// TestRunSliceEmptyAndMoreWorkersThanItems: a slice shorter than the
// pool, or empty, comes back whole and in input order.
func TestRunSliceEmptyAndMoreWorkersThanItems(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 16},
		Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
			d.Score = float64(index)
			return nil
		}},
	)
	for _, n := range []int{0, 3} {
		results, sum, err := r.RunSlice(context.Background(), makeDocs(n))
		if err != nil || len(results) != n || sum.Processed != n || sum.Succeeded != n {
			t.Fatalf("n=%d: %d results, summary %v, err %v", n, len(results), sum, err)
		}
		for i, res := range results {
			if res.Index != i || res.Item.Score != float64(i) {
				t.Fatalf("n=%d: result %d = %+v", n, i, res)
			}
		}
	}
}

// TestProcessCancelledEmitsInOrderPrefix: cancelling mid-stream still
// emits every accepted item, so at any worker count the output is a
// contiguous in-order prefix of the input; the channel closes and every
// goroutine of the run exits.
func TestProcessCancelledEmitsInOrderPrefix(t *testing.T) {
	const n, cancelAt = 1000, 50
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := NewRunner(Config[doc]{Workers: workers},
				Stage[doc]{Name: "jittery", Fn: func(_ context.Context, index int, d *doc) error {
					if index == cancelAt {
						cancel()
					}
					time.Sleep(time.Duration(index%3) * 50 * time.Microsecond)
					d.Score = float64(index)
					return nil
				}},
			)
			in := make(chan doc)
			go func() {
				defer close(in)
				for _, d := range makeDocs(n) {
					select {
					case in <- d:
					case <-ctx.Done():
						return
					}
				}
			}()
			emitted := 0
			for res := range r.Process(ctx, in) {
				if res.Index != emitted || res.Item.Score != float64(emitted) {
					t.Fatalf("emitted index %d (score %v), want %d", res.Index, res.Item.Score, emitted)
				}
				emitted++
			}
			// The item that cancelled was accepted, so it and every
			// item before it were emitted.
			if emitted <= cancelAt || emitted >= n {
				t.Fatalf("emitted %d results, want a prefix past %d and short of %d", emitted, cancelAt, n)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines still running after the channel closed", runtime.NumGoroutine()-before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestProcessOrderedStreaming(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 4, MaxAttempts: 4},
		Stage[doc]{Name: "jittery", Fn: func(_ context.Context, index int, d *doc) error {
			// Vary work so completion order differs from input order.
			time.Sleep(time.Duration((index%7)*100) * time.Microsecond)
			d.Score = float64(index)
			return nil
		}},
	)
	in := make(chan doc)
	go func() {
		defer close(in)
		for _, d := range makeDocs(200) {
			in <- d
		}
	}()
	next := 0
	for res := range r.Process(context.Background(), in) {
		if res.Index != next {
			t.Fatalf("ordered stream emitted index %d, want %d", res.Index, next)
		}
		next++
	}
	if next != 200 {
		t.Fatalf("stream emitted %d results", next)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []Result[doc] {
		r := NewRunner(Config[doc]{Workers: workers, MaxAttempts: 4},
			Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
				// Deterministic per-item randomness, derived the way
				// stages are meant to: from (seed, item index).
				rng := randx.New(42).Split("score").SplitN("doc", index)
				d.Score = rng.Float64()
				return nil
			}},
		)
		results, _, err := r.RunSlice(context.Background(), makeDocs(64))
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i].Item.Score != b[i].Item.Score {
			t.Fatalf("doc %d: score %v (1 worker) != %v (8 workers)", i, a[i].Item.Score, b[i].Item.Score)
		}
	}
}

func TestStatusAndSummaryStrings(t *testing.T) {
	for s, want := range map[Status]string{StatusOK: "ok", StatusDegraded: "degraded", StatusQuarantined: "quarantined"} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q", int(s), s.String())
		}
	}
	sum := Summary{Processed: 5, Succeeded: 4, Quarantined: 1}
	if !strings.Contains(sum.String(), "processed=5") || !strings.Contains(sum.String(), "quarantined=1") {
		t.Errorf("summary string = %q", sum.String())
	}
}
