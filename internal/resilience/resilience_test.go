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
	r := NewRunner(Config[doc]{Workers: 4},
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
	r := NewRunner(Config[doc]{Workers: 8,
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
			if res.Dead.Stage != "parse" || res.Dead.ID != res.Item.ID {
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
	r := NewRunner(Config[doc]{Workers: 4},
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

// TestPanickingStageRunsOncePerDocument: a stage that panics on every
// call runs exactly once per document, which is then quarantined, or
// degraded and still emitted when the stage is Degradable; the stage
// panics after writing to the document, and the write never reaches
// the result.
func TestPanickingStageRunsOncePerDocument(t *testing.T) {
	const n = 20
	for _, degradable := range []bool{false, true} {
		var calls [n]atomic.Int64
		r := NewRunner(Config[doc]{Workers: 4, Describe: func(d *doc) string { return d.ID }},
			Stage[doc]{Name: "boom", Degradable: degradable, Fn: func(_ context.Context, index int, d *doc) error {
				calls[index].Add(1)
				d.Score = -1
				panic("deterministic bug")
			}},
			Stage[doc]{Name: "after", Fn: func(_ context.Context, index int, d *doc) error {
				d.Tags = []string{"after"}
				return nil
			}},
		)
		results, sum, err := r.RunSlice(context.Background(), makeDocs(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("degradable=%v: doc %d ran the panicking stage %d times, want 1", degradable, i, got)
			}
		}
		for _, res := range results {
			if res.Item.Score != 0 {
				t.Fatalf("degradable=%v: doc %d kept the panicking stage's write: %+v", degradable, res.Index, res.Item)
			}
			var pe *PanicError
			switch {
			case degradable:
				if res.Status != StatusDegraded || fmt.Sprint(res.Degraded) != "[boom]" || fmt.Sprint(res.Item.Tags) != "[after]" {
					t.Fatalf("doc %d: %+v, want degraded by boom and emitted through after", res.Index, res)
				}
			case res.Status != StatusQuarantined || res.Dead.Stage != "boom" || !errors.As(res.Dead.Err, &pe):
				t.Fatalf("doc %d: %+v, want quarantined by a boom panic", res.Index, res)
			case res.Dead.String() != res.Item.ID+`: stage "boom" failed: panic: deterministic bug`:
				t.Fatalf("dead letter %q", res.Dead)
			}
		}
		if degradable && (sum.Degraded != n || sum.Succeeded != n) || !degradable && sum.Quarantined != n {
			t.Fatalf("degradable=%v: summary %v", degradable, sum)
		}
	}
}

// panicPlan is the tests' seeded fault plan: a wrapped stage panics on
// the items whose (seed, stage, index) draw falls under rate.
type panicPlan struct {
	seed uint64
	rate float64
}

func (p panicPlan) hits(stage string, index int) bool {
	return randx.New(p.seed).Split("panic-plan").Split(stage).SplitN("item", index).Bool(p.rate)
}

// wrap returns st panicking on the plan's items before its Fn runs.
func (p panicPlan) wrap(st Stage[doc]) Stage[doc] {
	inner := st.Fn
	st.Fn = func(ctx context.Context, index int, d *doc) error {
		if p.hits(st.Name, index) {
			panic(fmt.Sprintf("planned panic in stage %q item %d", st.Name, index))
		}
		return inner(ctx, index, d)
	}
	return st
}

// TestInjectionDeterministic: two runs under the same seeded panic plan
// make identical injection decisions and produce identical outcomes at
// any worker count.
func TestInjectionDeterministic(t *testing.T) {
	plan := panicPlan{seed: 77, rate: 0.05}
	score := Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
		d.Score = float64(index) * 0.25
		return nil
	}}
	run := func(workers int) ([]Result[doc], Summary) {
		r := NewRunner(Config[doc]{Workers: workers}, plan.wrap(score))
		results, sum, err := r.RunSlice(context.Background(), makeDocs(120))
		if err != nil {
			t.Fatal(err)
		}
		return results, sum
	}
	r1, s1 := run(1)
	r2, s2 := run(8)
	if s1.Quarantined == 0 {
		t.Fatalf("degenerate plan: nothing injected in %v", s1)
	}
	if s1.String() != s2.String() {
		t.Fatalf("summaries differ across worker counts: %v vs %v", s1, s2)
	}
	for i := range r1 {
		if r1[i].Status != r2[i].Status || r1[i].Item.Score != r2[i].Item.Score {
			t.Fatalf("item %d differs across worker counts: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestPoisonItemsQuarantinedExactly: under a seeded panic plan the
// quarantine set is exactly the planned set, and every other item gets
// the fault-free result.
func TestPoisonItemsQuarantinedExactly(t *testing.T) {
	const n = 200
	plan := panicPlan{seed: 5, rate: 0.1}
	var want []int
	for i := 0; i < n; i++ {
		if plan.hits("score", i) {
			want = append(want, i)
		}
	}
	if len(want) == 0 || len(want) == n {
		t.Fatalf("degenerate plan: %d of %d", len(want), n)
	}
	score := Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
		d.Score = float64(index) * 0.25
		return nil
	}}
	r := NewRunner(Config[doc]{Workers: 6}, plan.wrap(score))
	results, sum, err := r.RunSlice(context.Background(), makeDocs(n))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, res := range results {
		if res.Status == StatusQuarantined {
			got = append(got, res.Index)
			if !strings.Contains(res.Dead.Err.Error(), "planned panic") {
				t.Errorf("item %d quarantined by something other than the plan: %v", res.Index, res.Dead.Err)
			}
		} else if res.Item.Score != float64(res.Index)*0.25 {
			t.Errorf("item %d score %v", res.Index, res.Item.Score)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quarantined %v, want exactly the planned set %v", got, want)
	}
	if sum.Quarantined != len(want) || sum.Succeeded != n-len(want) {
		t.Fatalf("summary = %v", sum)
	}
}

// RunItem on the caller's goroutine gives each item exactly what
// RunSlice gives it at the same (seed, index): status, committed item
// state, degradation marks and dead letter, for ok, degraded,
// quarantined and panicking items alike.
func TestRunItemMatchesRunSlice(t *testing.T) {
	newRunner := func() *Runner[doc] {
		return NewRunner(Config[doc]{Workers: 4, Describe: func(d *doc) string { return d.ID }},
			Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
				d.Tags = append(d.Tags[:len(d.Tags):len(d.Tags)], "scored")
				switch index % 8 {
				case 3: // quarantined by an error
					return errors.New("poison")
				case 5: // quarantined by a panic
					panic("boom")
				}
				d.Score = randx.New(11).SplitN("score", index).Float64()
				return nil
			}},
			Stage[doc]{Name: "annotate", Degradable: true, Fn: func(_ context.Context, index int, d *doc) error {
				d.Tags = append(d.Tags[:len(d.Tags):len(d.Tags)], "annotated")
				switch index % 4 {
				case 1: // degraded by an error
					return errors.New("annotator down")
				case 2: // degraded by a panic
					panic("annotator bug")
				}
				return nil
			}},
		)
	}
	docs := makeDocs(40)
	want, sum, err := newRunner().RunSlice(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 10 || sum.Degraded != 15 || sum.Succeeded != 30 {
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
	r := NewRunner(Config[doc]{Workers: 4},
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

// TestFailedAttemptDoesNotCommitPartialMutation: a stage that writes
// to its item and then fails or panics leaves no trace of the write in
// the result, whether the item is degraded or quarantined.
func TestFailedAttemptDoesNotCommitPartialMutation(t *testing.T) {
	mutator := func(name string, degradable bool) Stage[doc] {
		return Stage[doc]{Name: name, Degradable: degradable, Fn: func(_ context.Context, index int, d *doc) error {
			d.Text = d.Text + "+" + name // mutate, then maybe fail
			switch index % 3 {
			case 1:
				return errors.New("failed after partial write")
			case 2:
				panic("panicked after partial write")
			}
			return nil
		}}
	}
	r := NewRunner(Config[doc]{Workers: 2}, mutator("annotate", true), mutator("score", false))
	results, _, err := r.RunSlice(context.Background(), makeDocs(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		// Only successful stages' mutations are visible.
		base := fmt.Sprintf("document %d body", res.Index)
		want, status := base+"+annotate+score", StatusOK
		if res.Index%3 != 0 {
			want, status = base, StatusQuarantined
		}
		if res.Item.Text != want || res.Status != status {
			t.Errorf("item %d: %v %q, want %v %q", res.Index, res.Status, res.Item.Text, status, want)
		}
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	r := NewRunner(Config[doc]{Workers: 2},
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
	r := NewRunner(Config[doc]{Workers: 4},
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
		r := NewRunner(Config[doc]{Workers: workers},
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
