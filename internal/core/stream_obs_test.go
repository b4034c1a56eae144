package core

// Instrumented-streaming tests: metrics must never change scores,
// annotations or ordering (golden equivalence against the uninstrumented
// run), counter totals must be exact and identical at every worker
// count, and the instrumented hot path must stay allocation-free.

import (
	"context"
	"slices"
	"testing"

	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
	"harassrepro/internal/testutil"
)

// metricsOpts returns golden StreamOptions with a fresh registry
// attached.
func metricsOpts(workers int) (StreamOptions, *obs.Registry) {
	reg := obs.NewRegistry()
	return StreamOptions{
		Workers: workers, Seed: 42, Ordered: true, Annotate: true,
		Metrics: reg,
	}, reg
}

// TestScoreStreamMetricsDoNotChangeResults is the golden equivalence
// gate: the same batch with and without instrumentation produces
// bit-identical scores, identical annotations and identical ordering.
func TestScoreStreamMetricsDoNotChangeResults(t *testing.T) {
	det := testDetector(t)
	docs := goldenStreamDocs()
	plain, plainSum, err := det.ScoreBatch(context.Background(), docs, StreamOptions{
		Workers: 4, Seed: 42, Ordered: true, Annotate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := metricsOpts(4)
	instr, instrSum, err := det.ScoreBatch(context.Background(), docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(instr) != len(plain) {
		t.Fatalf("instrumented run: %d results, plain run: %d", len(instr), len(plain))
	}
	if instrSum.Processed != plainSum.Processed || instrSum.Quarantined != plainSum.Quarantined {
		t.Fatalf("summaries diverge: %v vs %v", instrSum, plainSum)
	}
	for i := range plain {
		p, q := plain[i], instr[i]
		if p.Index != q.Index || p.Status != q.Status {
			t.Fatalf("doc %d: envelope diverges: %+v vs %+v", i, p, q)
		}
		if p.Item.CTH != q.Item.CTH || p.Item.Dox != q.Item.Dox {
			t.Errorf("doc %s: scores diverge with metrics: (%v,%v) vs (%v,%v)",
				p.Item.ID, p.Item.CTH, p.Item.Dox, q.Item.CTH, q.Item.Dox)
		}
		if len(p.Item.PII) != len(q.Item.PII) || len(p.Item.Attacks) != len(q.Item.Attacks) {
			t.Errorf("doc %s: annotations diverge with metrics", p.Item.ID)
		}
		for j := range p.Item.PII {
			if p.Item.PII[j] != q.Item.PII[j] {
				t.Errorf("doc %s: PII[%d] %q vs %q", p.Item.ID, j, p.Item.PII[j], q.Item.PII[j])
			}
		}
	}
}

// TestScoreStreamMetricsWorkerInvariance runs the instrumented batch at
// workers 1, 4 and 16 and requires bit-identical scores plus exactly
// equal aggregate counter totals: every total is a pure function of the
// input, never of scheduling.
func TestScoreStreamMetricsWorkerInvariance(t *testing.T) {
	det := testDetector(t)
	docs := goldenStreamDocs()
	n := uint64(len(docs))

	// The sampled-doc set is fixed by the seed, so its size is too.
	var sampledDocs uint64
	sampleProbe := newScoreMetrics(obs.NewRegistry(), 42)
	for i := range docs {
		if sampleProbe.sampled(i) {
			sampledDocs++
		}
	}
	if sampledDocs == 0 || sampledDocs == n {
		t.Fatalf("degenerate sample size %d of %d: test would prove nothing", sampledDocs, n)
	}

	var baseline []resilience.Result[StreamDoc]
	var baseSnap obs.Snapshot
	for _, workers := range []int{1, 4, 16} {
		opts, reg := metricsOpts(workers)
		results, sum, err := det.ScoreBatch(context.Background(), docs, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Processed != len(docs) || sum.Quarantined != 0 {
			t.Fatalf("workers=%d: summary %v", workers, sum)
		}
		s := reg.Snapshot()

		// Exact totals, independent of worker count.
		cv := func(name string, labels ...obs.Label) float64 { return counterValue(s, name, labels...) }
		checks := []struct {
			name string
			got  float64
			want uint64
			l    []obs.Label
		}{
			{"pipeline_items_total ok", cv("pipeline_items_total", obs.L("status", "ok")), n, nil},
			{"attempts score", cv("pipeline_stage_attempts_total", obs.L("stage", "score")), n, nil},
			{"attempts pii", cv("pipeline_stage_attempts_total", obs.L("stage", "pii")), n, nil},
			{"attempts taxonomy", cv("pipeline_stage_attempts_total", obs.L("stage", "taxonomy")), n, nil},
			{"pool gets", cv("score_pool_gets_total"), n, nil},
			{"phase sampled", cv("score_phase_sampled_total"), sampledDocs, nil},
			{"pii scanned", cv("pii_docs_scanned_total"), n, nil},
		}
		for _, c := range checks {
			if uint64(c.got) != c.want {
				t.Errorf("workers=%d: %s = %v, want %d", workers, c.name, c.got, c.want)
			}
		}
		// The shared tokenize and each task's featurize and model
		// histograms saw exactly the sampled docs; no per-task tokenize
		// series exists.
		series := [][2]string{{"both", "tokenize"}}
		for _, task := range []string{"cth", "dox"} {
			series = append(series, [2]string{task, "featurize"}, [2]string{task, "model"})
			if _, ok := findMetric(s, "score_phase_ns", obs.L("task", task), obs.L("phase", "tokenize")); ok {
				t.Errorf("workers=%d: score_phase_ns{%s,tokenize} exists; tokenize is shared", workers, task)
			}
		}
		for _, sr := range series {
			m, ok := findMetric(s, "score_phase_ns", obs.L("task", sr[0]), obs.L("phase", sr[1]))
			if !ok || m.Count != sampledDocs {
				t.Errorf("workers=%d: score_phase_ns{%s,%s} count = %v, want %d",
					workers, sr[0], sr[1], m.Count, sampledDocs)
			}
		}
		// Pool misses are bounded by concurrency, never exceed gets.
		if miss, gets := cv("score_pool_misses_total"), cv("score_pool_gets_total"); miss > gets {
			t.Errorf("workers=%d: pool misses %v > gets %v", workers, miss, gets)
		}

		if baseline == nil {
			baseline, baseSnap = results, s
			continue
		}
		for i, r := range results {
			b := baseline[i]
			if r.Item.CTH != b.Item.CTH || r.Item.Dox != b.Item.Dox {
				t.Errorf("workers=%d doc %s: scores (%v,%v) != baseline (%v,%v)",
					workers, r.Item.ID, r.Item.CTH, r.Item.Dox, b.Item.CTH, b.Item.Dox)
			}
		}
		// Cross-worker counter equality for the deterministic series
		// (latency histograms and pool misses legitimately vary).
		for _, name := range []string{
			"pipeline_stage_attempts_total", "pipeline_stage_failures_total",
			"score_phase_sampled_total",
			"pii_docs_scanned_total", "pii_docs_clean_total",
		} {
			for _, m := range baseSnap.Metrics {
				if m.Name != name {
					continue
				}
				if got := counterValue(s, name, m.Labels...); m.Value == nil || got != float64(*m.Value) {
					t.Errorf("workers=%d: %s%v = %v, baseline %v", workers, name, m.Labels, got, m.Value)
				}
			}
		}
	}
}

// TestScoreStreamMetricsReconcilePII cross-checks the PII counters
// against the documents: every doc is scanned once per attempt, and the
// clean count plus admitted-anything count covers the corpus.
func TestScoreStreamMetricsReconcilePII(t *testing.T) {
	det := testDetector(t)
	docs := goldenStreamDocs()
	opts, reg := metricsOpts(4)
	if _, _, err := det.ScoreBatch(context.Background(), docs, opts); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	scanned := counterValue(s, "pii_docs_scanned_total")
	clean := counterValue(s, "pii_docs_clean_total")
	if scanned != float64(len(docs)) {
		t.Errorf("pii scanned = %v, want %d", scanned, len(docs))
	}
	if clean >= scanned {
		t.Errorf("clean = %v of %v scanned: corpus contains PII-bearing docs", clean, scanned)
	}
	// The dox-bearing document must have admitted (at least) the
	// address, email and phone families with matches.
	for _, family := range []string{"address", "email", "phone"} {
		if v := counterValue(s, "pii_family_matches_total", obs.L("family", family)); v == 0 {
			t.Errorf("pii_family_matches_total{family=%q} = 0, want > 0", family)
		}
	}
}

// TestScoreBothAllocs gates the fused scoring hot path at zero
// allocations per document, plain and instrumented — for unsampled
// documents and for sampled ones — on a short document (one shared
// vector) and a long one (spans for both tasks).
func TestScoreBothAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	det := testDetector(t)
	sm := newScoreMetrics(obs.NewRegistry(), 42)

	// Find one unsampled and one sampled index.
	unsampled, sampled := -1, -1
	for i := 0; i < 10000 && (unsampled < 0 || sampled < 0); i++ {
		if sm.sampled(i) {
			if sampled < 0 {
				sampled = i
			}
		} else if unsampled < 0 {
			unsampled = i
		}
	}
	if unsampled < 0 || sampled < 0 {
		t.Fatal("could not find both a sampled and an unsampled index")
	}

	base := randx.New(42)
	cthBase, doxBase := base.Split("score-cth"), base.Split("score-dox")
	for _, doc := range []struct{ name, text string }{
		{"short", "we need to mass-report his twitter and youtube, spread the word"},
		{"long", tokenLenText(513)},
	} {
		for _, tc := range []struct {
			name  string
			score func(cthRng, doxRng *randx.Source)
		}{
			{"scoreBoth", func(c, d *randx.Source) { det.scoreBoth(doc.text, c, d) }},
			{"scoreBothObs unsampled", func(c, d *randx.Source) { det.scoreBothObs(doc.text, c, d, sm, unsampled) }},
			{"scoreBothObs sampled", func(c, d *randx.Source) { det.scoreBothObs(doc.text, c, d, sm, sampled) }},
		} {
			// Allocated once: the indirect call would move per-run
			// stack copies to the heap.
			cthRng, doxRng := new(randx.Source), new(randx.Source)
			run := func() {
				*cthRng, *doxRng = cthBase.SplitNVal("doc", 0), doxBase.SplitNVal("doc", 0)
				tc.score(cthRng, doxRng)
			}
			run() // warm scratch
			if n := testing.AllocsPerRun(200, run); n > 0 {
				t.Errorf("%s (%s doc) allocates %v per op, want 0", tc.name, doc.name, n)
			}
		}
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

// BenchmarkScoreBatch runs the same documents at the same seed through
// the plain and the instrumented stream, so the instrumentation
// overhead is the ratio of its two sub-benchmarks:
//
//	go test -run '^$' -bench '^BenchmarkScoreBatch$' -count 10 ./internal/core/
//
// The batch is a few hundred documents so that the per-document cost,
// not the per-batch metric registration, is what the ratio shows.
func BenchmarkScoreBatch(b *testing.B) {
	det := testDetector(b)
	var docs []StreamDoc
	for len(docs) < 256 {
		docs = append(docs, goldenStreamDocs()...)
	}
	for _, arm := range []struct {
		name    string
		metrics *obs.Registry
	}{
		{"plain", nil},
		{"metrics", obs.NewRegistry()},
	} {
		b.Run(arm.name, func(b *testing.B) {
			opts := StreamOptions{Seed: 42, Metrics: arm.metrics}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := det.ScoreBatch(context.Background(), docs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
