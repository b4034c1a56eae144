package detector

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

	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
)

// phaseSampleRate is the fraction of documents whose per-phase scoring
// timings are recorded.
const phaseSampleRate = 1.0 / 8

// The phases of one score, in the order scoreToks runs them, and each
// one's score_phase_ns {task, phase} labels: the tokenize both
// classifiers share is task "both".
const (
	phaseTokenize = iota
	phaseCTHFeaturize
	phaseCTHModel
	phaseDoxFeaturize
	phaseDoxModel
	numPhases
)

var phaseLabels = [numPhases][2]string{{"both", "tokenize"}, {"cth", "featurize"}, {"cth", "model"}, {"dox", "featurize"}, {"dox", "model"}}

// scoreMetrics holds the pre-resolved scoring instruments for one
// streaming run.
type scoreMetrics struct {
	poolGets    *obs.Counter
	poolMisses  *obs.Counter
	sampledDocs *obs.Counter
	phase       [numPhases]*obs.Histogram
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
			"scored documents with per-phase timings recorded"),
		sampleBase: randx.New(seed).Split("phase-sample"),
	}
	for p, l := range phaseLabels {
		sm.phase[p] = reg.NewHistogram("score_phase_ns",
			"sampled per-phase scoring latency", obs.DurationBuckets(),
			obs.L("task", l[0]), obs.L("phase", l[1]))
	}
	return sm
}

// sampled reports whether the document at index has its phase timings
// recorded. Pure function of (seed, index); allocation-free.
func (sm *scoreMetrics) sampled(index int) bool {
	rng := sm.sampleBase.SplitNVal("doc", index)
	return rng.Float64() < phaseSampleRate
}

// countCheckout counts one scorer taken from the pool, and a pool miss
// when the scorer is new.
func (sm *scoreMetrics) countCheckout(sc *scorer) {
	sm.poolGets.Inc()
	if sc.fresh {
		sc.fresh = false
		sm.poolMisses.Inc()
	}
}

// record adds one sampled document's phase times to the histograms.
func (sm *scoreMetrics) record(clk *phaseClock) {
	sm.sampledDocs.Inc()
	for p, h := range sm.phase {
		h.Observe(clk.spent[p].Nanoseconds())
	}
}

// phaseClock times the phases of one sampled document's score. A nil
// clock (every unsampled document, every run without metrics) reads no
// clock and records nothing.
type phaseClock struct {
	last  time.Time
	spent [numPhases]time.Duration
}

// lap charges the time since the previous lap (or the clock's start)
// to phase p. It inlines to a nil check on the unsampled path.
func (c *phaseClock) lap(p int) {
	if c != nil {
		c.tick(p)
	}
}

func (c *phaseClock) tick(p int) {
	now := time.Now()
	c.spent[p] = now.Sub(c.last)
	c.last = now
}
