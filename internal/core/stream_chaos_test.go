package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"harassrepro/internal/corpus"
	"harassrepro/internal/obs"
	"harassrepro/internal/resilience"
	"harassrepro/internal/resilience/chaos"
)

// Chaos suite: proves the streaming scoring path completes with
// bounded, predictable loss under injected faults, and that fault
// handling never perturbs the scores of surviving documents.

var (
	detOnce sync.Once
	det     *Detector
	detErr  error
)

// sharedDetector saves the shared pipeline's models and loads them as
// a Detector, once per test binary.
func sharedDetector(t *testing.T) *Detector {
	t.Helper()
	detOnce.Do(func() {
		p := sharedPipeline(t)
		dir := t.TempDir()
		if detErr = p.SaveModels(dir); detErr != nil {
			return
		}
		det, detErr = LoadDetector(dir)
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return det
}

// streamCorpus converts a slice of the QuickConfig boards corpus into
// stream documents.
func streamCorpus(t *testing.T, n int) []StreamDoc {
	t.Helper()
	p := sharedPipeline(t)
	c := p.Corpora[corpus.Boards]
	if c == nil || c.Len() == 0 {
		t.Fatal("no boards corpus")
	}
	if n > c.Len() {
		n = c.Len()
	}
	docs := make([]StreamDoc, n)
	for i := 0; i < n; i++ {
		d := &c.Docs[i]
		docs[i] = StreamDoc{ID: d.ID, Platform: string(d.Platform), Text: d.Text}
	}
	return docs
}

// streamAttempts is the retry budget of the chaotic stream runs.
const streamAttempts = 6

// TestScoreStreamChaos is the acceptance chaos test: 5% injected
// transient stage failures and 1% injected panics over a QuickConfig
// corpus stream. The run must complete, quarantine exactly the
// permanently-failing (poison) documents, and produce scores identical
// to a fault-free run for every non-quarantined document.
func TestScoreStreamChaos(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 300)
	opts := StreamOptions{Workers: 4, Seed: 11, MaxAttempts: streamAttempts, Annotate: true}

	clean, cleanSum, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cleanSum.Quarantined != 0 || cleanSum.Succeeded != len(docs) {
		t.Fatalf("fault-free run lost documents: %v", cleanSum)
	}

	chaosCfg := chaos.Config{Seed: 23, TransientRate: 0.05, PanicRate: 0.01, PermanentRate: 0.02}
	chaosOpts := opts
	chaosOpts.Metrics = obs.NewRegistry()
	chaosOpts.StageWrap = func(st resilience.Stage[StreamDoc]) resilience.Stage[StreamDoc] {
		return chaos.Wrap(st, chaosCfg)
	}
	faulty, faultySum, err := det.ScoreBatch(context.Background(), docs, chaosOpts)
	if err != nil {
		t.Fatal(err)
	}

	// The expected quarantine set: documents poisoned in the required
	// score stage. Poisoning a degradable stage (pii, taxonomy) must
	// degrade, not quarantine.
	poison := map[int]bool{}
	for _, i := range poisonIndexes(chaosCfg, "score", len(docs)) {
		poison[i] = true
	}
	if len(poison) == 0 {
		t.Fatal("chaos seed produced no poison documents; test would be vacuous")
	}
	if faultySum.Quarantined != len(poison) {
		t.Fatalf("quarantined %d documents, want exactly the %d poison ones\n%v",
			faultySum.Quarantined, len(poison), faultySum.DeadLetters)
	}
	if faultySum.Processed != len(docs) {
		t.Fatalf("chaotic run did not complete: %v", faultySum)
	}

	degradedPoison := map[int]bool{}
	for _, stage := range []string{"pii", "taxonomy"} {
		for _, i := range poisonIndexes(chaosCfg, stage, len(docs)) {
			degradedPoison[i] = true
		}
	}

	for i := range docs {
		c, f := clean[i], faulty[i]
		if c.Index != i || f.Index != i {
			t.Fatalf("results not in input order at %d", i)
		}
		if poison[i] {
			if f.Status != resilience.StatusQuarantined || f.Dead == nil {
				t.Fatalf("poison doc %d not quarantined: %+v", i, f)
			}
			if f.Dead.ID != docs[i].ID {
				t.Fatalf("dead letter for %d names %q, want %q", i, f.Dead.ID, docs[i].ID)
			}
			continue
		}
		if f.Status == resilience.StatusQuarantined {
			t.Fatalf("non-poison doc %d quarantined: %v", i, f.Dead)
		}
		// Score identity: fault handling must not perturb results.
		if f.Item.CTH != c.Item.CTH || f.Item.Dox != c.Item.Dox {
			t.Fatalf("doc %d scores diverged under chaos: cth %v vs %v, dox %v vs %v",
				i, f.Item.CTH, c.Item.CTH, f.Item.Dox, c.Item.Dox)
		}
		if degradedPoison[i] {
			if f.Status != resilience.StatusDegraded {
				t.Fatalf("doc %d with poisoned annotation stage not degraded: %+v", i, f.Status)
			}
		} else {
			if fmt.Sprint(f.Item.PII) != fmt.Sprint(c.Item.PII) || fmt.Sprint(f.Item.Attacks) != fmt.Sprint(c.Item.Attacks) {
				t.Fatalf("doc %d annotations diverged under chaos", i)
			}
		}
	}

	// Reconcile the obs counters against the chaos plan. The poison sets
	// determine every failure and item-status total exactly; the
	// transient/panic mix only shifts how attempts split into retries,
	// which the errors == retries + failures identity still pins down.
	s := chaosOpts.Metrics.Snapshot()
	cv := func(name, stage string) int {
		return int(counterValue(s, name, obs.L("stage", stage)))
	}
	annotFailures := map[string]int{}
	for _, stage := range []string{"pii", "taxonomy"} {
		for _, i := range poisonIndexes(chaosCfg, stage, len(docs)) {
			if !poison[i] { // quarantined docs never reach the annotation stages
				annotFailures[stage]++
			}
		}
	}
	wantFailures := map[string]int{
		"score":    len(poison),
		"pii":      annotFailures["pii"],
		"taxonomy": annotFailures["taxonomy"],
	}
	// Documents entering each stage: everything reaches score;
	// quarantined docs skip the degradable annotation stages (degraded
	// ones continue).
	wantEntered := map[string]int{
		"score":    len(docs),
		"pii":      len(docs) - len(poison),
		"taxonomy": len(docs) - len(poison),
	}
	for _, stage := range []string{"score", "pii", "taxonomy"} {
		attempts := cv("pipeline_stage_attempts_total", stage)
		retries := cv("pipeline_stage_retries_total", stage)
		errs := cv("pipeline_stage_errors_total", stage)
		panics := cv("pipeline_stage_panics_total", stage)
		failures := cv("pipeline_stage_failures_total", stage)
		if got, want := attempts-retries, wantEntered[stage]; got != want {
			t.Errorf("stage %s: attempts-retries = %d, want %d entering docs", stage, got, want)
		}
		if failures != wantFailures[stage] {
			t.Errorf("stage %s: failures = %d, want %d from the poison plan", stage, failures, wantFailures[stage])
		}
		// Without cancellation every failed attempt is either retried or
		// the permanent failure.
		if errs != retries+failures {
			t.Errorf("stage %s: errors %d != retries %d + failures %d", stage, errs, retries, failures)
		}
		if panics > errs {
			t.Errorf("stage %s: panics %d > errors %d", stage, panics, errs)
		}
		// Every poison doc burns the full retry budget at its fatal stage.
		if m, ok := findMetric(s, "pipeline_stage_latency_ns", obs.L("stage", stage)); !ok || int(m.Count) != attempts {
			t.Errorf("stage %s: latency histogram count %d != attempts %d", stage, m.Count, attempts)
		}
	}
	for _, dl := range faultySum.DeadLetters {
		if dl.Attempts != streamAttempts {
			t.Errorf("dead letter %v burned %d attempts, want the full budget %d",
				dl.ID, dl.Attempts, streamAttempts)
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
	run := func(workers int) []resilience.Result[StreamDoc] {
		res, _, err := det.ScoreBatch(context.Background(),
			docs, StreamOptions{Workers: workers, Seed: 7, MaxAttempts: streamAttempts})
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
	var docs []StreamDoc
	for i, txt := range texts {
		docs = append(docs, StreamDoc{ID: fmt.Sprintf("t%d", i), Text: txt})
	}
	res, sum, err := det.ScoreBatch(context.Background(), docs, StreamOptions{Workers: 2, Seed: 1, MaxAttempts: streamAttempts})
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
// document (Permanent error), quarantined on the first attempt.
func TestScoreStreamEmptyTextQuarantined(t *testing.T) {
	det := sharedDetector(t)
	docs := []StreamDoc{
		{ID: "ok", Text: "hello there"},
		{ID: "empty", Text: ""},
	}
	res, sum, err := det.ScoreBatch(context.Background(), docs, StreamOptions{Workers: 2, Seed: 1, MaxAttempts: streamAttempts})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 || sum.Succeeded != 1 {
		t.Fatalf("summary = %v", sum)
	}
	if res[1].Dead == nil || res[1].Dead.Attempts != 1 || res[1].Dead.Stage != "score" {
		t.Fatalf("empty doc dead letter = %+v", res[1].Dead)
	}
}

// TestScoreStreamChannelOrdered drives the channel form end to end.
func TestScoreStreamChannelOrdered(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 80)
	in := make(chan StreamDoc)
	go func() {
		defer close(in)
		for _, d := range docs {
			in <- d
		}
	}()
	out := det.ScoreStream(context.Background(), in,
		StreamOptions{Workers: 4, Seed: 3, MaxAttempts: streamAttempts, Ordered: true, Annotate: true})
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

// TestScoreStreamLatencyDeadline: latency spikes beyond the per-stage
// deadline are cut, retried and absorbed.
func TestScoreStreamLatencyDeadline(t *testing.T) {
	det := sharedDetector(t)
	docs := streamCorpus(t, 60)
	opts := StreamOptions{Workers: 4, Seed: 5, MaxAttempts: streamAttempts}
	clean, _, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	chaosCfg := chaos.Config{Seed: 31, LatencyRate: 0.2, Latency: 100 * time.Millisecond}
	opts.StageWrap = func(st resilience.Stage[StreamDoc]) resilience.Stage[StreamDoc] {
		// The stage bounds each attempt with its own deadline, which
		// cuts an injected spike short.
		inner := chaos.Wrap(st, chaosCfg)
		st.Fn = func(ctx context.Context, index int, sd *StreamDoc) error {
			ctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
			defer cancel()
			return inner.Fn(ctx, index, sd)
		}
		return st
	}
	faulty, sum, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 0 || sum.Succeeded != len(docs) {
		t.Fatalf("latency spikes caused loss: %v", sum)
	}
	for i := range docs {
		if faulty[i].Item.CTH != clean[i].Item.CTH {
			t.Fatalf("doc %d score changed under latency injection", i)
		}
	}
}

// poisonIndexes returns the document indexes in [0, n) that cfg's plan
// poisons in the named stage: the ones a no-op stage wrapped in the
// plan's poison decisions alone quarantines on a single attempt.
func poisonIndexes(cfg chaos.Config, stage string, n int) []int {
	noop := resilience.Stage[StreamDoc]{Name: stage, Fn: func(context.Context, int, *StreamDoc) error { return nil }}
	oracle := resilience.NewRunner(resilience.Config[StreamDoc]{MaxAttempts: 1},
		chaos.Wrap(noop, chaos.Config{Seed: cfg.Seed, PermanentRate: cfg.PermanentRate}))
	var out []int
	for i := 0; i < n; i++ {
		if oracle.RunItem(context.Background(), i, StreamDoc{}).Status == resilience.StatusQuarantined {
			out = append(out, i)
		}
	}
	return out
}
