package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harassrepro/internal/corpus"
	"harassrepro/internal/detector"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
)

// Fault suite: proves the streaming scoring path completes with
// bounded, predictable loss under injected stage panics and stalls, and
// that fault handling never perturbs the scores of surviving documents.

var (
	detOnce sync.Once
	det     *detector.Detector
	detErr  error
)

// sharedDetector saves the shared pipeline's models and loads them as
// a Detector, once per test binary.
func sharedDetector(t *testing.T) *detector.Detector {
	t.Helper()
	detOnce.Do(func() {
		p := sharedPipeline(t)
		dir := t.TempDir()
		if detErr = p.SaveModels(dir); detErr != nil {
			return
		}
		det, detErr = detector.Load(dir)
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return det
}

// streamCorpus converts a slice of the QuickConfig boards corpus into
// stream documents.
func streamCorpus(t *testing.T, n int) []detector.StreamDoc {
	t.Helper()
	p := sharedPipeline(t)
	c := p.Corpora[corpus.Boards]
	if c == nil || c.Len() == 0 {
		t.Fatal("no boards corpus")
	}
	if n > c.Len() {
		n = c.Len()
	}
	docs := make([]detector.StreamDoc, n)
	for i := 0; i < n; i++ {
		d := &c.Docs[i]
		docs[i] = detector.StreamDoc{ID: d.ID, Platform: string(d.Platform), Text: d.Text}
	}
	return docs
}

// faultPlan is a seeded set of (stage, document index) pairs: the
// documents a fault test makes that stage panic or stall on.
type faultPlan struct {
	seed uint64
	rate float64
}

func (p faultPlan) hits(stage string, index int) bool {
	return randx.New(p.seed).Split("fault-plan").Split(stage).SplitN("doc", index).Bool(p.rate)
}

// TestScoreStreamChaos is the acceptance fault test: over a QuickConfig
// corpus stream, the score, pii and taxonomy stages each panic on a
// seeded 2% of documents, after doing their work on the document. The
// run must complete, run every stage once per document that reaches
// it, quarantine exactly the documents whose score stage panicked,
// degrade (without the panicking stage's half-written annotation)
// exactly those whose annotation stage panicked, and produce scores
// bit-identical to a fault-free run for every other document.
func TestScoreStreamChaos(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 300)
	opts := detector.StreamOptions{Workers: 4, Seed: 11, Annotate: true}

	clean, cleanSum, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cleanSum.Quarantined != 0 || cleanSum.Succeeded != len(docs) {
		t.Fatalf("fault-free run lost documents: %v", cleanSum)
	}

	plan := faultPlan{seed: 23, rate: 0.02}
	stages := []string{"score", "pii", "taxonomy"}
	calls := map[string][]atomic.Int64{}
	for _, stage := range stages {
		calls[stage] = make([]atomic.Int64, len(docs))
	}
	faultOpts := opts
	faultOpts.Metrics = obs.NewRegistry()
	faultOpts.StageWrap = func(st resilience.Stage[detector.StreamDoc]) resilience.Stage[detector.StreamDoc] {
		inner, counts := st.Fn, calls[st.Name]
		st.Fn = func(ctx context.Context, index int, sd *detector.StreamDoc) error {
			counts[index].Add(1)
			err := inner(ctx, index, sd)
			if plan.hits(st.Name, index) {
				panic(fmt.Sprintf("planned panic in stage %q document %d", st.Name, index))
			}
			return err
		}
		return st
	}
	faulty, faultySum, err := det.ScoreBatch(context.Background(), docs, faultOpts)
	if err != nil {
		t.Fatal(err)
	}

	// The planned sets. A document quarantined in score never reaches
	// the annotation stages, so it is not degraded.
	planned := map[string]map[int]bool{}
	for _, stage := range stages {
		planned[stage] = map[int]bool{}
		for i := range docs {
			if plan.hits(stage, i) && (stage == "score" || !plan.hits("score", i)) {
				planned[stage][i] = true
			}
		}
	}
	poison := planned["score"]
	if len(poison) == 0 || len(planned["pii"]) == 0 || len(planned["taxonomy"]) == 0 {
		t.Fatalf("degenerate plan: %d score, %d pii, %d taxonomy panics", len(poison), len(planned["pii"]), len(planned["taxonomy"]))
	}
	if faultySum.Quarantined != len(poison) || faultySum.Processed != len(docs) {
		t.Fatalf("summary %v, want all %d processed and exactly the %d planned score panics quarantined\n%v",
			faultySum, len(docs), len(poison), faultySum.DeadLetters)
	}

	for i := range docs {
		c, f := clean[i], faulty[i]
		if c.Index != i || f.Index != i {
			t.Fatalf("results not in input order at %d", i)
		}
		// Every stage runs once per document that reaches it.
		for _, stage := range stages {
			want := int64(1)
			if stage != "score" && poison[i] {
				want = 0
			}
			if got := calls[stage][i].Load(); got != want {
				t.Errorf("doc %d: stage %s ran %d times, want %d", i, stage, got, want)
			}
		}
		if poison[i] {
			var pe *resilience.PanicError
			if f.Status != resilience.StatusQuarantined || f.Dead.Stage != "score" || !errors.As(f.Dead.Err, &pe) {
				t.Fatalf("planned doc %d not quarantined by its score panic: %+v", i, f)
			}
			if f.Dead.ID != docs[i].ID || f.Item.CTH != 0 || f.Item.Dox != 0 {
				t.Fatalf("dead letter for %d names %q (want %q), item %+v keeps the panicked stage's scores", i, f.Dead.ID, docs[i].ID, f.Item)
			}
			continue
		}
		// Score identity: fault handling must not perturb results.
		if f.Item.CTH != c.Item.CTH || f.Item.Dox != c.Item.Dox {
			t.Fatalf("doc %d scores diverged under faults: cth %v vs %v, dox %v vs %v",
				i, f.Item.CTH, c.Item.CTH, f.Item.Dox, c.Item.Dox)
		}
		var wantDegraded []string
		wantPII, wantAttacks, wantSeed := fmt.Sprint(c.Item.PII), fmt.Sprint(c.Item.Attacks), c.Item.SeedQuery
		if planned["pii"][i] {
			wantDegraded, wantPII = append(wantDegraded, "pii"), "[]"
		}
		if planned["taxonomy"][i] {
			wantDegraded, wantAttacks, wantSeed = append(wantDegraded, "taxonomy"), "[]", false
		}
		if fmt.Sprint(f.Degraded) != fmt.Sprint(wantDegraded) || fmt.Sprint(f.Item.PII) != wantPII ||
			fmt.Sprint(f.Item.Attacks) != wantAttacks || f.Item.SeedQuery != wantSeed {
			t.Fatalf("doc %d: degraded %v pii %v attacks %v seed %v, want %v %s %s %v",
				i, f.Degraded, f.Item.PII, f.Item.Attacks, f.Item.SeedQuery, wantDegraded, wantPII, wantAttacks, wantSeed)
		}
	}

	// Reconcile the obs counters against the plan: each stage runs once
	// per entering document, and every run that panicked is a failure.
	s := faultOpts.Metrics.Snapshot()
	cv := func(name, stage string) int {
		return int(counterValue(s, name, obs.L("stage", stage)))
	}
	for _, stage := range stages {
		entered := len(docs)
		if stage != "score" {
			entered -= len(poison)
		}
		attempts := cv("pipeline_stage_attempts_total", stage)
		if attempts != entered {
			t.Errorf("stage %s: attempts = %d, want %d entering docs", stage, attempts, entered)
		}
		if m, ok := findMetric(s, "pipeline_stage_latency_ns", obs.L("stage", stage)); !ok || int(m.Count) != attempts {
			t.Errorf("stage %s: latency histogram count %d != attempts %d", stage, m.Count, attempts)
		}
		want := len(planned[stage])
		for _, name := range []string{"pipeline_stage_errors_total", "pipeline_stage_panics_total", "pipeline_stage_failures_total"} {
			if got := cv(name, stage); got != want {
				t.Errorf("stage %s: %s = %d, want %d from the plan", stage, name, got, want)
			}
		}
	}
	// Item-status totals reconcile with the run summary.
	iv := func(status string) int {
		return int(counterValue(s, "pipeline_items_total", obs.L("status", status)))
	}
	// Summary.Succeeded includes degraded docs; items_total{ok} does not.
	if iv("ok") != faultySum.Succeeded-faultySum.Degraded || iv("degraded") != faultySum.Degraded || iv("quarantined") != faultySum.Quarantined {
		t.Errorf("items_total ok/degraded/quarantined = %d/%d/%d, summary %d/%d/%d",
			iv("ok"), iv("degraded"), iv("quarantined"),
			faultySum.Succeeded-faultySum.Degraded, faultySum.Degraded, faultySum.Quarantined)
	}
	if iv("ok")+iv("degraded")+iv("quarantined") != faultySum.Processed {
		t.Errorf("sum of items_total != Processed %d", faultySum.Processed)
	}
}

// TestScoreStreamDeterministicAcrossWorkers: same seed, different
// worker counts, identical scores.
func TestScoreStreamDeterministicAcrossWorkers(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 120)
	run := func(workers int) []resilience.Result[detector.StreamDoc] {
		res, _, err := det.ScoreBatch(context.Background(),
			docs, detector.StreamOptions{Workers: workers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i].Item.CTH != b[i].Item.CTH || a[i].Item.Dox != b[i].Item.Dox {
			t.Fatalf("doc %d scores differ across worker counts", i)
		}
	}
}

// TestScoreStreamMatchesSequentialScores: the streaming path agrees
// with the detector's plain sequential scoring on short documents
// (where span sampling never consumes randomness, both paths are
// exactly the classifier's deterministic output).
func TestScoreStreamMatchesSequentialScores(t *testing.T) {
	det := sharedDetector(t)
	texts := []string{
		"we need to mass-report his twitter and youtube, spread the word",
		"anyone up for ranked tonight, patch notes are out",
		"DOX: Jane Roe / Address: 99 Cedar Lane, Riverton, TX, 75001",
	}
	var docs []detector.StreamDoc
	for i, txt := range texts {
		docs = append(docs, detector.StreamDoc{ID: fmt.Sprintf("t%d", i), Text: txt})
	}
	res, sum, err := det.ScoreBatch(context.Background(), docs, detector.StreamOptions{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Succeeded != len(docs) {
		t.Fatalf("summary = %v", sum)
	}
	for i, txt := range texts {
		if got, want := res[i].Item.CTH, det.ScoreCTH(txt); got != want {
			t.Errorf("doc %d CTH stream %v != sequential %v", i, got, want)
		}
		if got, want := res[i].Item.Dox, det.ScoreDox(txt); got != want {
			t.Errorf("doc %d Dox stream %v != sequential %v", i, got, want)
		}
	}
}

// TestScoreStreamEmptyTextQuarantined: an empty document is a poison
// document, quarantined by the score stage.
func TestScoreStreamEmptyTextQuarantined(t *testing.T) {
	det := sharedDetector(t)
	docs := []detector.StreamDoc{
		{ID: "ok", Text: "hello there"},
		{ID: "empty", Text: ""},
	}
	res, sum, err := det.ScoreBatch(context.Background(), docs, detector.StreamOptions{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 || sum.Succeeded != 1 {
		t.Fatalf("summary = %v", sum)
	}
	if res[1].Dead == nil || res[1].Dead.Stage != "score" {
		t.Fatalf("empty doc dead letter = %+v", res[1].Dead)
	}
}

// TestScoreStreamChannelOrdered drives the channel form end to end.
func TestScoreStreamChannelOrdered(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 80)
	in := make(chan detector.StreamDoc)
	go func() {
		defer close(in)
		for _, d := range docs {
			in <- d
		}
	}()
	out := det.ScoreStream(context.Background(), in,
		detector.StreamOptions{Workers: 4, Seed: 3, Ordered: true, Annotate: true})
	n := 0
	for res := range out {
		if res.Index != n {
			t.Fatalf("out of order: got %d want %d", res.Index, n)
		}
		n++
	}
	if n != len(docs) {
		t.Fatalf("stream emitted %d of %d", n, len(docs))
	}
}

// TestScoreStreamLatencyDeadline: a score stage that stalls past its
// per-stage deadline on a seeded set of documents costs those documents
// and nothing else: they are quarantined with the deadline error, the
// run does not wait out the stalls, and every other score is the
// fault-free one.
func TestScoreStreamLatencyDeadline(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 60)
	opts := detector.StreamOptions{Workers: 4, Seed: 5}
	clean, _, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultPlan{seed: 31, rate: 0.2}
	opts.StageWrap = func(st resilience.Stage[detector.StreamDoc]) resilience.Stage[detector.StreamDoc] {
		inner := st.Fn
		st.Fn = func(ctx context.Context, index int, sd *detector.StreamDoc) error {
			ctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
			defer cancel()
			if plan.hits(st.Name, index) {
				select {
				case <-time.After(time.Minute):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return inner(ctx, index, sd)
		}
		return st
	}
	start := time.Now()
	faulty, sum, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("run took %v: the stalls were waited out", took)
	}
	stalled := 0
	for i := range docs {
		f := faulty[i]
		if plan.hits("score", i) {
			stalled++
			if f.Status != resilience.StatusQuarantined || !errors.Is(f.Dead.Err, context.DeadlineExceeded) {
				t.Fatalf("stalled doc %d: %+v, want quarantined by its deadline", i, f)
			}
			continue
		}
		if f.Status != resilience.StatusOK || f.Item.CTH != clean[i].Item.CTH || f.Item.Dox != clean[i].Item.Dox {
			t.Fatalf("doc %d changed beside the stalls: %+v", i, f)
		}
	}
	if stalled == 0 || sum.Quarantined != stalled || sum.Succeeded != len(docs)-stalled {
		t.Fatalf("summary %v, %d stalled", sum, stalled)
	}
}
