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
	merged []string // span-merge scratch for long documents
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
	return d.featurizeToks(sc, sc.sess.Tokenize(text), maxLen, rng)
}

// featurizeToks turns an already-tokenized document into a feature
// vector. Documents at or under the span length skip the Spans
// machinery entirely (Spans would return the token slice unchanged
// without consuming rng); longer documents keep the exact legacy
// chunk-shuffle-merge sequence so span sampling stays bit-reproducible.
func (d *Detector) featurizeToks(sc *scorer, toks []string, maxLen int, rng *randx.Source) features.Vector {
	return sc.featurize(toks, maxLen, rng)
}

// featurize is featurizeToks on the scorer's own scratch, shared by the
// detector's streaming path and the pipeline's pooled vectorize.
func (sc *scorer) featurize(toks []string, maxLen int, rng *randx.Source) features.Vector {
	if len(toks) <= maxLen {
		return sc.feat.Vectorize(toks)
	}
	spans := tokenize.Spans(toks, maxLen, 2, tokenize.SpanRandomNoOverlap, rng)
	if len(spans) == 1 {
		return sc.feat.Vectorize(spans[0])
	}
	sc.merged = sc.merged[:0]
	for _, s := range spans {
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
