package core

// Scoring instrumentation. When StreamOptions.Metrics is set, the
// score stage reports scratch-pool traffic (always-on: one atomic per
// document) and a tokenize/featurize/model phase breakdown on a
// deterministically sampled subset of documents. The sample decision is
// a pure function of (seed, doc index) — the same documents are timed
// on every run and at every worker count — and only sampled documents
// pay the extra clock reads, which keeps the steady-state overhead of
// an instrumented run within the ≤2% budget that BenchmarkScoreBatch's
// plain and metrics arms measure.
//
// Instrumentation never touches the span-sampling randomness: the
// phase-sample stream is split under its own "phase-sample" label, so
// scores stay bit-identical with metrics on or off (golden-tested).

import (
	"time"

	"harassrepro/internal/features"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
)

// phaseSampleRate is the fraction of documents whose per-phase scoring
// timings are recorded.
const phaseSampleRate = 1.0 / 8

// Task and phase indexes into scoreMetrics.phase.
const (
	taskCTH = iota
	taskDox
)

const (
	phaseFeaturize = iota
	phaseModel
)

var (
	taskNames  = [...]string{taskCTH: "cth", taskDox: "dox"}
	phaseNames = [...]string{phaseFeaturize: "featurize", phaseModel: "model"}
)

// scoreMetrics holds the pre-resolved scoring instruments for one
// streaming run.
type scoreMetrics struct {
	poolGets    *obs.Counter
	poolMisses  *obs.Counter
	sampledDocs *obs.Counter
	// tokenize times the one tokenize both classifiers share
	// (task="both"); phase holds the per-task featurize and model series.
	tokenize   *obs.Histogram
	phase      [2][2]*obs.Histogram // [task][phase]
	sampleBase *randx.Source
}

// newScoreMetrics registers (or re-resolves) the scoring instruments on
// reg and derives the phase-sampling stream from seed.
func newScoreMetrics(reg *obs.Registry, seed uint64) *scoreMetrics {
	sm := &scoreMetrics{
		poolGets: reg.NewCounter("score_pool_gets_total",
			"scorer scratch checkouts from the pool"),
		poolMisses: reg.NewCounter("score_pool_misses_total",
			"scorer scratch constructed because the pool was empty"),
		sampledDocs: reg.NewCounter("score_phase_sampled_total",
			"scored documents with per-phase timings recorded"),
		tokenize: reg.NewHistogram("score_phase_ns",
			"sampled per-phase scoring latency", obs.DurationBuckets(),
			obs.L("task", "both"), obs.L("phase", "tokenize")),
		sampleBase: randx.New(seed).Split("phase-sample"),
	}
	for t, task := range taskNames {
		for p, phase := range phaseNames {
			sm.phase[t][p] = reg.NewHistogram("score_phase_ns",
				"sampled per-phase scoring latency", obs.DurationBuckets(),
				obs.L("task", task), obs.L("phase", phase))
		}
	}
	return sm
}

// sampled reports whether the document at index has its phase timings
// recorded. Pure function of (seed, index); allocation-free.
func (sm *scoreMetrics) sampled(index int) bool {
	rng := sm.sampleBase.SplitNVal("doc", index)
	return rng.Float64() < phaseSampleRate
}

// scoreBothObs is scoreBoth plus instrumentation: pool-traffic counters
// on every document, and a phase breakdown when the document is
// sampled — the shared tokenize once, then featurize and model per
// task. A document that fits both span lengths is vectorized once; that
// time is CTH's featurize, and dox's featurize records the near-zero
// cost of reusing the vector, so the series add up to what the path
// spent. The rng consumption is identical to scoreBoth, so the scores
// are bit-identical to the uninstrumented path.
func (d *Detector) scoreBothObs(text string, cthRng, doxRng *randx.Source, sm *scoreMetrics, index int) (cth, dox float64) {
	sc := d.scorers.Get().(*scorer)
	sm.poolGets.Inc()
	if sc.fresh {
		sc.fresh = false
		sm.poolMisses.Inc()
	}
	if !sm.sampled(index) {
		cth, dox = d.scoreToks(sc, sc.sess.Tokenize(text), cthRng, doxRng)
		d.scorers.Put(sc)
		return cth, dox
	}
	sm.sampledDocs.Inc()
	t0 := time.Now()
	toks := sc.sess.Tokenize(text)
	t1 := time.Now()
	shared := d.sharesVector(len(toks))
	var vec features.Vector
	if shared {
		vec = sc.feat.Vectorize(toks)
	} else {
		vec = sc.featurize(toks, d.meta.CTHTextLen, cthRng)
	}
	t2 := time.Now()
	cth = d.cth.Score(vec)
	t3 := time.Now()
	if !shared {
		vec = sc.featurize(toks, d.meta.DoxTextLen, doxRng)
	}
	t4 := time.Now()
	dox = d.dox.Score(vec)
	t5 := time.Now()
	sm.tokenize.Observe(t1.Sub(t0).Nanoseconds())
	sm.observe(taskCTH, t2.Sub(t1), t3.Sub(t2))
	sm.observe(taskDox, t4.Sub(t3), t5.Sub(t4))
	d.scorers.Put(sc)
	return cth, dox
}

// observe records one task's featurize and model intervals.
func (sm *scoreMetrics) observe(task int, featurize, model time.Duration) {
	sm.phase[task][phaseFeaturize].Observe(featurize.Nanoseconds())
	sm.phase[task][phaseModel].Observe(model.Nanoseconds())
}
