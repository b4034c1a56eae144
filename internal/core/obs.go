package core

// Scoring instrumentation. When StreamOptions.Metrics is set, the
// stream stages report scratch-pool traffic (always-on: one atomic per
// score) and a tokenize/featurize/model phase breakdown on a
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

	"harassrepro/internal/model"
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
	phaseTokenize = iota
	phaseFeaturize
	phaseModel
)

var (
	taskNames  = [...]string{taskCTH: "cth", taskDox: "dox"}
	phaseNames = [...]string{phaseTokenize: "tokenize", phaseFeaturize: "featurize", phaseModel: "model"}
)

// scoreMetrics holds the pre-resolved scoring instruments for one
// streaming run.
type scoreMetrics struct {
	poolGets    *obs.Counter
	poolMisses  *obs.Counter
	sampledDocs *obs.Counter
	phase       [2][3]*obs.Histogram // [task][phase]
	sampleBase  *randx.Source
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
			"score calls with per-phase timings recorded"),
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

// scoreObs is scoreWith plus instrumentation: pool-traffic counters on
// every call, and a tokenize/featurize/model timing breakdown when the
// document is sampled. The rng consumption is identical to scoreWith,
// so the score is bit-identical to the uninstrumented path.
func (d *Detector) scoreObs(m *model.LogReg, task int, text string, maxLen int, rng *randx.Source, sm *scoreMetrics, index int) float64 {
	sc := d.scorers.Get().(*scorer)
	sm.poolGets.Inc()
	if sc.fresh {
		sc.fresh = false
		sm.poolMisses.Inc()
	}
	if !sm.sampled(index) {
		score := m.Score(d.vectorizeWith(sc, text, maxLen, rng))
		d.scorers.Put(sc)
		return score
	}
	sm.sampledDocs.Inc()
	t0 := time.Now()
	toks := sc.sess.Tokenize(text)
	t1 := time.Now()
	vec := d.featurizeToks(sc, toks, maxLen, rng)
	t2 := time.Now()
	score := m.Score(vec)
	t3 := time.Now()
	sm.phase[task][phaseTokenize].Observe(t1.Sub(t0).Nanoseconds())
	sm.phase[task][phaseFeaturize].Observe(t2.Sub(t1).Nanoseconds())
	sm.phase[task][phaseModel].Observe(t3.Sub(t2).Nanoseconds())
	d.scorers.Put(sc)
	return score
}
