package detector

import (
	"context"
	"errors"

	"harassrepro/internal/obs"
	"harassrepro/internal/pii"
	"harassrepro/internal/query"
	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
	"harassrepro/internal/taxonomy"
)

// The paper's deployment surface scored live multi-platform feeds,
// where a single malformed or pathological document must never stall
// the stream. ScoreStream is that surface for the reproduction: it
// runs the detector's scoring plus the rule-based annotations on the
// resilience runtime — bounded worker pool, per-document panic
// isolation, dead-letter quarantine — while keeping scores
// bit-identical to a sequential run for a given seed.

// StreamDoc is one document flowing through the streaming scoring
// path: input fields (ID, Platform, Text) plus the annotations the
// stages fill in.
type StreamDoc struct {
	ID       string
	Platform string
	Text     string

	// CTH / Dox are the classifiers' positive-class probabilities.
	CTH float64
	Dox float64
	// PII / Attacks are the rule-based annotations (degradable: they
	// may be missing when their stage failed, in which case
	// Result.Degraded names the stage).
	PII     []string
	Attacks []string
	// SeedQuery reports the Figure 4 mobilizing-language seed query.
	SeedQuery bool
}

// StreamOptions configures ScoreStream, ScoreBatch and Runner.
type StreamOptions struct {
	// Workers bounds the scoring pool. 0 means GOMAXPROCS.
	Workers int
	// Seed drives span sampling: two runs with the same seed over the
	// same stream produce identical scores for every non-quarantined
	// document, regardless of worker count or injected faults.
	Seed uint64
	// Ordered changes nothing and is kept for existing callers:
	// results are always in input order.
	Ordered bool
	// Annotate adds the PII and taxonomy/seed-query stages (both
	// degradable) after scoring.
	Annotate bool
	// StageWrap, if set, wraps every stage before the runner is
	// built — the hook the fault tests inject stage panics through.
	StageWrap func(resilience.Stage[StreamDoc]) resilience.Stage[StreamDoc]
	// Metrics, if set, receives the runner's per-stage counters and
	// latency histograms plus the scoring instruments (scratch-pool
	// traffic, sampled phase timings, PII prefilter counters). Scores
	// are bit-identical with or without it.
	Metrics *obs.Registry
}

var (
	streamExtractor = pii.NewExtractor()
	streamSeedQuery = query.WithAttackTerms(query.Figure4())
)

// streamStages builds the stage pipeline for streaming scoring.
func (d *Detector) streamStages(opts StreamOptions) []resilience.Stage[StreamDoc] {
	// Per-document scoring randomness is derived from (seed, task,
	// index), never from the detector's shared stream: scheduling
	// cannot perturb it. The per-task splits keep the labels of the
	// per-task stages they replaced, so spans are sampled as before; they
	// are hoisted out of the per-document closure, and each document's
	// child streams are derived by value (SplitNVal: Split().SplitN()'s
	// states, no allocation).
	base := randx.New(opts.Seed)
	cthBase := base.Split("score-cth")
	doxBase := base.Split("score-dox")
	// With a registry the score stage counts and samples; the
	// instruments never draw span randomness, so scores do not change.
	var sm *scoreMetrics
	ext := streamExtractor
	if opts.Metrics != nil {
		sm = newScoreMetrics(opts.Metrics, opts.Seed)
		ext = pii.NewExtractor()
		ext.SetMetrics(opts.Metrics)
	}
	// One stage runs both classifiers so each document is tokenized once
	// (and vectorized once when it fits both span lengths).
	stages := []resilience.Stage[StreamDoc]{{
		Name: "score",
		Fn: func(_ context.Context, index int, sd *StreamDoc) error {
			if sd.Text == "" {
				return errors.New("empty document text")
			}
			cthRng := cthBase.SplitNVal("doc", index)
			doxRng := doxBase.SplitNVal("doc", index)
			sd.CTH, sd.Dox = d.scoreBoth(sd.Text, &cthRng, &doxRng, sm, index)
			return nil
		},
	}}
	if opts.Annotate {
		// Compiled on first use, not at package init: processes that never
		// annotate (harassd -no-annotate, the offline re-score) skip it.
		cat := taxonomy.Shared()
		stages = append(stages,
			resilience.Stage[StreamDoc]{
				Name:       "pii",
				Degradable: true,
				Fn: func(_ context.Context, _ int, sd *StreamDoc) error {
					// At most one entry per PII type: the scratch array keeps
					// the engine call allocation-free; only documents that
					// actually contain PII pay for the []string.
					var scratch [9]pii.Type
					var types []string
					for _, t := range ext.AppendTypes(scratch[:0], sd.Text) {
						types = append(types, string(t))
					}
					sd.PII = types
					return nil
				},
			},
			resilience.Stage[StreamDoc]{
				Name:       "taxonomy",
				Degradable: true,
				Fn: func(_ context.Context, _ int, sd *StreamDoc) error {
					var subs []string
					for _, s := range cat.Categorize(sd.Text).Subs() {
						subs = append(subs, string(s))
					}
					sd.Attacks = subs
					sd.SeedQuery = streamSeedQuery.Match(sd.Text)
					return nil
				},
			},
		)
	}
	if opts.StageWrap != nil {
		for i := range stages {
			stages[i] = opts.StageWrap(stages[i])
		}
	}
	return stages
}

// Runner builds the detector's stage runner for opts: the scoring stages
// (plus the annotation stages with opts.Annotate) on the resilience
// runtime. ScoreStream and ScoreBatch build one per call; a long-lived
// caller (internal/serve) builds one per model and scores each document
// on its own goroutine with the runner's RunItem, passing the
// document's stream position as index, which yields the result
// ScoreStream gives the document at that position. Workers shapes only
// Process and RunSlice.
func (d *Detector) Runner(opts StreamOptions) *resilience.Runner[StreamDoc] {
	return resilience.NewRunner(resilience.Config[StreamDoc]{
		Workers:  opts.Workers,
		Describe: func(sd *StreamDoc) string { return sd.ID },
		Metrics:  opts.Metrics,
	}, d.streamStages(opts)...)
}

// ScoreStream scores documents from in on a fault-tolerant worker
// pool, yielding results in input order. The returned channel must be
// drained until closed; each result carries the scored document, its
// degradation marks, or its dead-letter record. Cancel ctx to stop
// early.
func (d *Detector) ScoreStream(ctx context.Context, in <-chan StreamDoc, opts StreamOptions) <-chan resilience.Result[StreamDoc] {
	return d.Runner(opts).Process(ctx, in)
}

// ScoreBatch is the slice convenience over ScoreStream: results come
// back in input order together with the run summary.
func (d *Detector) ScoreBatch(ctx context.Context, docs []StreamDoc, opts StreamOptions) ([]resilience.Result[StreamDoc], resilience.Summary, error) {
	return d.Runner(opts).RunSlice(ctx, docs)
}
