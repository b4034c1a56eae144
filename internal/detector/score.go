package detector

// The detector's zero-allocation scoring path: a sync.Pool hands each
// scoring goroutine a scorer (WordPiece session, featurizer), so
// steady-state scoring allocates nothing, with scores bit-identical to
// the legacy composition's ~350 allocations per document.

import (
	"time"

	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/randx"
	"harassrepro/internal/tokenize"
)

// scorer is the per-goroutine scratch for one in-flight score.
type scorer struct {
	sess *tokenize.Session
	feat *features.Featurizer
	// fresh marks a scorer straight out of the pool's New — the
	// instrumented path counts it as a pool miss, then clears it.
	fresh bool
}

// vectorize tokenizes text and featurizes it at one span length. The
// vector aliases the scorer's scratch: consume it before releasing it.
func (sc *scorer) vectorize(text string, maxLen int, rng *randx.Source) features.Vector {
	return sc.feat.VectorizeSpans(sc.sess.Tokenize(text), maxLen, rng)
}

// scoreWith runs one classifier over text on pooled scratch.
func (d *Detector) scoreWith(m *model.LogReg, text string, maxLen int, rng *randx.Source) float64 {
	sc := d.scorers.Get().(*scorer)
	score := m.Score(sc.vectorize(text, maxLen, rng))
	d.scorers.Put(sc)
	return score
}

// scoreBoth runs both classifiers over text on one pooled scorer; cthRng
// and doxRng are the tasks' span-sampling streams, and each score equals
// scoreWith's for its task. A non-nil sm counts the checkout and times
// the phases when the document at stream position index is sampled,
// never touching cthRng or doxRng.
func (d *Detector) scoreBoth(text string, cthRng, doxRng *randx.Source, sm *scoreMetrics, index int) (cth, dox float64) {
	sc := d.scorers.Get().(*scorer)
	var clk *phaseClock
	if sm != nil {
		sm.countCheckout(sc)
		if sm.sampled(index) {
			clk = &phaseClock{last: time.Now()}
		}
	}
	cth, dox = d.scoreToks(sc, text, cthRng, doxRng, clk)
	if clk != nil {
		sm.record(clk)
	}
	d.scorers.Put(sc)
	return cth, dox
}

// scoreToks is the one scoring body: text is tokenized once and both
// classifiers score it. A document that fits both span lengths is
// vectorized once; a longer one is featurized per task from the shared
// tokens, each task drawing its spans from its own stream. The vector
// aliases the scorer's scratch, so CTH is scored before dox's featurize
// overwrites it. A non-nil clk records the tokenize, then each task's
// featurize and model phase; for a shared vector that time is CTH's
// featurize, and dox's featurize records the near-zero cost of reusing
// it, so the series add up to what the path spent.
func (d *Detector) scoreToks(sc *scorer, text string, cthRng, doxRng *randx.Source, clk *phaseClock) (cth, dox float64) {
	toks := sc.sess.Tokenize(text)
	clk.lap(phaseTokenize)
	v := sc.feat.VectorizeSpans(toks, d.meta.CTHTextLen, cthRng)
	clk.lap(phaseCTHFeaturize)
	cth = d.cth.Score(v)
	clk.lap(phaseCTHModel)
	if len(toks) > min(d.meta.CTHTextLen, d.meta.DoxTextLen) {
		v = sc.feat.VectorizeSpans(toks, d.meta.DoxTextLen, doxRng)
	}
	clk.lap(phaseDoxFeaturize)
	dox = d.dox.Score(v)
	clk.lap(phaseDoxModel)
	return cth, dox
}
