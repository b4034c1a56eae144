package core

// The detector's zero-allocation scoring fast path. Every score used
// to pay for a ToLower copy, per-word Builder churn, a fresh token
// slice, per-n-gram hash objects and a fresh counts map — ~350 heap
// allocations per streamed document. A scorer bundles the reusable
// scratch (WordPiece session, featurizer, span-merge buffer) and a
// sync.Pool hands one to each concurrent scoring goroutine, so
// steady-state scoring allocates nothing and produces bit-identical
// scores (golden-tested against the legacy composition at multiple
// worker counts).

import (
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/randx"
	"harassrepro/internal/tokenize"
)

// scorer is the per-goroutine scratch for one in-flight score.
type scorer struct {
	sess   *tokenize.Session
	feat   *features.Featurizer
	spans  [][]string // span-sampling scratch for long documents
	merged []string   // span-merge scratch for long documents
	// fresh marks a scorer straight out of the pool's New — the
	// instrumented path counts it as a pool miss, then clears it.
	fresh bool
}

// vectorizeWith mirrors the legacy text-to-vector transform on the
// scorer's scratch: tokenize, then featurize.
//
// The returned vector aliases the scorer's scratch: consume it before
// releasing the scorer.
func (d *Detector) vectorizeWith(sc *scorer, text string, maxLen int, rng *randx.Source) features.Vector {
	return sc.featurize(sc.sess.Tokenize(text), maxLen, rng)
}

// featurize turns an already-tokenized document into a feature vector on
// the scorer's scratch; the detector's scoring paths and the pipeline's
// pooled vectorize share it. Documents at or under the span length skip
// span sampling entirely (tokenize.Spans would return the token slice
// unchanged without consuming rng); longer documents keep the exact
// legacy chunk-shuffle-merge sequence, on the scorer's span buffer, so
// span sampling stays bit-reproducible. Sampling never reorders toks, so
// one token slice can be featurized for several span lengths in turn.
func (sc *scorer) featurize(toks []string, maxLen int, rng *randx.Source) features.Vector {
	if len(toks) <= maxLen {
		return sc.feat.Vectorize(toks)
	}
	sc.spans = tokenize.AppendRandomSpans(sc.spans[:0], toks, maxLen, 2, rng)
	if len(sc.spans) == 1 {
		return sc.feat.Vectorize(sc.spans[0])
	}
	sc.merged = sc.merged[:0]
	for _, s := range sc.spans {
		sc.merged = append(sc.merged, s...)
	}
	return sc.feat.Vectorize(sc.merged)
}

// scoreWith runs one classifier over text on pooled scratch.
func (d *Detector) scoreWith(m *model.LogReg, text string, maxLen int, rng *randx.Source) float64 {
	sc := d.scorers.Get().(*scorer)
	score := m.Score(d.vectorizeWith(sc, text, maxLen, rng))
	d.scorers.Put(sc)
	return score
}

// scoreBoth runs both classifiers over text on one pooled scorer,
// tokenizing once; cthRng and doxRng are the tasks' span-sampling
// streams. Both scores are bit-identical to scoring each task alone
// with scoreWith.
func (d *Detector) scoreBoth(text string, cthRng, doxRng *randx.Source) (cth, dox float64) {
	sc := d.scorers.Get().(*scorer)
	cth, dox = d.scoreToks(sc, sc.sess.Tokenize(text), cthRng, doxRng)
	d.scorers.Put(sc)
	return cth, dox
}

// sharesVector reports whether a document of n tokens fits both span
// lengths, so one vector serves both classifiers.
func (d *Detector) sharesVector(n int) bool {
	return n <= min(d.meta.CTHTextLen, d.meta.DoxTextLen)
}

// scoreToks scores already-tokenized text with both classifiers. A
// document that fits both span lengths is vectorized once; a longer one
// is featurized per task from the shared tokens, each task drawing its
// spans from its own stream. The vector aliases the scorer's scratch, so
// CTH is scored before dox's featurize overwrites it.
func (d *Detector) scoreToks(sc *scorer, toks []string, cthRng, doxRng *randx.Source) (cth, dox float64) {
	if d.sharesVector(len(toks)) {
		v := sc.feat.Vectorize(toks)
		return d.cth.Score(v), d.dox.Score(v)
	}
	cth = d.cth.Score(sc.featurize(toks, d.meta.CTHTextLen, cthRng))
	return cth, d.dox.Score(sc.featurize(toks, d.meta.DoxTextLen, doxRng))
}
