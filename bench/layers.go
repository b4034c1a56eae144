package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"harassrepro/bench/benchkit"
	"harassrepro/internal/core"
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/pii"
	"harassrepro/internal/query"
	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/tokenize"
)

// stageKit is the scoring path's stage functions rebuilt one by one
// from the saved model directory, the way core.LoadDetector and
// core's stream stages compose them. The benchmark may not instrument
// the program, so it times each stage by calling it alone; the replay
// must produce exactly the scores the composed path produces, which
// the callers of doc check.
type stageKit struct {
	sess           *tokenize.Session
	feat           *features.Featurizer
	cth, dox       *model.LogReg
	cthLen, doxLen int
	cthBase        *randx.Source
	doxBase        *randx.Source
	pii            *pii.Session
	cat            *taxonomy.Categorizer
	seedQuery      query.Query
	merged         []string
}

func newStageKit(m *models) (*stageKit, error) {
	cth, err := model.LoadLogRegFile(filepath.Join(m.dir, "cth.model"))
	if err != nil {
		return nil, err
	}
	dox, err := model.LoadLogRegFile(filepath.Join(m.dir, "dox.model"))
	if err != nil {
		return nil, err
	}
	base := randx.New(trainSeed)
	return &stageKit{
		sess:    m.tok.NewSession(),
		feat:    features.NewHasher(features.HasherConfig{Buckets: m.buckets, Bigrams: true}).NewFeaturizer(),
		cth:     cth,
		dox:     dox,
		cthLen:  m.cthLen,
		doxLen:  m.doxLen,
		cthBase: base.Split("score-cth"),
		doxBase: base.Split("score-dox"),
		pii:     pii.NewSession(),
		cat:     taxonomy.NewCategorizer(),
		// The seed query as core's stream stage builds it.
		seedQuery: query.WithAttackTerms(query.Figure4()),
	}, nil
}

// stageCost accumulates what the stages cost over a set of documents.
type stageCost struct {
	tokenize, features, model, pii, taxonomy, query time.Duration
	docs, tokens, nnz, piiClean, labelled           int
	textBytes                                       int64
}

func (c *stageCost) add(o stageCost) {
	c.tokenize += o.tokenize
	c.features += o.features
	c.model += o.model
	c.pii += o.pii
	c.taxonomy += o.taxonomy
	c.query += o.query
	c.docs += o.docs
	c.tokens += o.tokens
	c.nnz += o.nnz
	c.piiClean += o.piiClean
	c.labelled += o.labelled
	c.textBytes += o.textBytes
}

// scoring is the time of the stages every document runs; annotate adds
// the three stages harassd runs by default and the offline path skips.
func (c stageCost) scoring() time.Duration  { return c.tokenize + c.features + c.model }
func (c stageCost) annotate() time.Duration { return c.pii + c.taxonomy + c.query }

// timerCost is what one time.Now() pair costs; stage intervals are a
// few hundred nanoseconds, so it is measured and taken off.
var timerCost = func() time.Duration {
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(t0)
	}
	return time.Since(t0) / n
}()

// net is a timed interval less the timer's own cost.
func net(d time.Duration) time.Duration { return max(0, d-timerCost) }

// vectorize mirrors core's scorer.featurize: short documents go
// straight to the featurizer, long ones through the seeded
// random-no-overlap span sampler first.
func (k *stageKit) vectorize(toks []string, maxLen int, rng *randx.Source) features.Vector {
	if len(toks) <= maxLen {
		return k.feat.Vectorize(toks)
	}
	spans := tokenize.Spans(toks, maxLen, 2, tokenize.SpanRandomNoOverlap, rng)
	if len(spans) == 1 {
		return k.feat.Vectorize(spans[0])
	}
	k.merged = k.merged[:0]
	for _, s := range spans {
		k.merged = append(k.merged, s...)
	}
	return k.feat.Vectorize(k.merged)
}

// doc runs one document through the stages in path order — tokenize,
// featurize and score once per classifier, then the annotation stages
// when annotate is set — and returns the two scores. index is the
// document's position in the batch being mirrored: it seeds span
// sampling exactly as core's stream stages do.
func (k *stageKit) doc(index int, text string, annotate bool, c *stageCost) (cth, dox float64) {
	c.docs++
	c.textBytes += int64(len(text))
	score := func(m *model.LogReg, maxLen int, base *randx.Source) float64 {
		rng := base.SplitNVal("doc", index)
		t0 := time.Now()
		toks := k.sess.Tokenize(text)
		t1 := time.Now()
		v := k.vectorize(toks, maxLen, &rng)
		t2 := time.Now()
		s := m.Score(v)
		t3 := time.Now()
		c.tokenize += net(t1.Sub(t0))
		c.features += net(t2.Sub(t1))
		c.model += net(t3.Sub(t2))
		c.tokens += len(toks)
		c.nnz += len(v.Indices)
		return s
	}
	cth = score(k.cth, k.cthLen, k.cthBase)
	dox = score(k.dox, k.doxLen, k.doxBase)
	if annotate {
		var scratch [9]pii.Type
		t0 := time.Now()
		types := k.pii.AppendTypes(scratch[:0], text)
		t1 := time.Now()
		subs := k.cat.Categorize(text).Subs()
		t2 := time.Now()
		k.seedQuery.Match(text)
		t3 := time.Now()
		c.pii += net(t1.Sub(t0))
		c.taxonomy += net(t2.Sub(t1))
		c.query += net(t3.Sub(t2))
		if len(types) == 0 {
			c.piiClean++
		}
		if len(subs) > 0 {
			c.labelled++
		}
	}
	return cth, dox
}

// report writes the per-document stage metrics. Tokenize and featurize
// run twice per document (once per classifier), so their per-document
// figures are for both calls, as the path executes them.
func (c stageCost) report(o *outcome, annotate bool) {
	if c.docs == 0 {
		return
	}
	n := float64(c.docs)
	perDoc := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	o.set("tokenize.ns_per_doc", perDoc(c.tokenize))
	if c.tokenize > 0 {
		// Each classifier tokenizes the text again: bytes read are 2x.
		o.set("tokenize.mb_per_s", 2*float64(c.textBytes)/1e6/c.tokenize.Seconds())
	}
	o.set("tokenize.tokens_per_doc", float64(c.tokens)/2/n)
	o.set("features.ns_per_doc", perDoc(c.features))
	o.set("features.nnz_per_doc", float64(c.nnz)/2/n)
	o.set("model.ns_per_doc", perDoc(c.model))
	if annotate {
		o.set("pii.ns_per_doc", perDoc(c.pii))
		o.set("pii.clean_share", float64(c.piiClean)/n)
		o.set("taxonomy.ns_per_doc", perDoc(c.taxonomy))
		o.set("taxonomy.labelled_share", float64(c.labelled)/n)
		o.set("query.ns_per_doc", perDoc(c.query))
	}
}

// scoreBatchCost times Detector.ScoreBatch at one worker over docs. It
// returns the batch wall time, the allocations per document and the
// results, which the stage replay must reproduce.
func scoreBatchCost(ctx context.Context, det *core.Detector, docs []core.StreamDoc, annotate bool) (time.Duration, float64, []resilience.Result[core.StreamDoc], error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, sum, err := det.ScoreBatch(ctx, docs, core.StreamOptions{Workers: 1, Seed: trainSeed, Annotate: annotate})
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, nil, err
	}
	if sum.Succeeded != len(docs) || len(res) != len(docs) {
		return 0, 0, nil, fmt.Errorf("ScoreBatch scored %d of %d documents", sum.Succeeded, len(docs))
	}
	return d, float64(after.Mallocs-before.Mallocs) / float64(len(docs)), res, nil
}

// median of durations, as a float in the given unit.
func medianIn(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return benchkit.Median(xs)
}
