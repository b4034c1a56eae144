// Package annotate simulates the paper's annotation workforce (§5.1,
// §5.3): crowd annotators from a third-party labelling service and
// domain-expert annotators (the authors). Each annotator is a per-class
// confusion model; crowd pools are calibrated so that the measured
// inter-annotator agreement lands near the paper's Cohen's kappa values
// (0.519 doxing / 0.350 CTH for the crowd; 0.893 / 0.845 for experts).
//
// The package implements the paper's quality-control protocol: a 10-item
// entry test with a 90% passing bar, a re-test every tenth document with
// removal below 85%, two annotators per document, and a third annotator
// breaking ties.
package annotate

import (
	"fmt"

	"harassrepro/internal/randx"
	"harassrepro/internal/stats"
)

// Task identifies the annotation task.
type Task string

// The two annotation tasks.
const (
	TaskDox Task = "doxing"
	TaskCTH Task = "call-to-harassment"
)

// Item is one document to annotate; Truth is the hidden ground-truth
// label the simulated annotator perceives through its confusion model.
type Item struct {
	ID    string
	Truth bool
}

// Decision is the protocol outcome for one item.
type Decision struct {
	ID    string
	Label bool
	// Disagreed reports whether the first two annotators disagreed and a
	// third broke the tie.
	Disagreed bool
	// First and Second are the first two annotators' labels (used for
	// agreement statistics).
	First, Second bool
}

// Annotator is a simulated labeller with per-class accuracy.
type Annotator struct {
	ID string
	// TPR is the probability of labelling a true positive as positive;
	// TNR the probability of labelling a true negative as negative.
	TPR, TNR float64

	goldSeen    int
	goldCorrect int
	removed     bool
}

// Label produces the annotator's label for an item.
func (a *Annotator) Label(truth bool, rng *randx.Source) bool {
	if truth {
		return rng.Bool(a.TPR)
	}
	return !rng.Bool(a.TNR)
}

// Removed reports whether the annotator was removed by quality gating.
func (a *Annotator) Removed() bool { return a.removed }

// PoolConfig configures an annotator pool.
type PoolConfig struct {
	// Size is the number of annotators. Defaults to 8.
	Size int
	// TPR/TNR are the pool's nominal per-class accuracies.
	TPR, TNR float64
	// Jitter perturbs each annotator's accuracies uniformly in
	// [-Jitter, +Jitter], producing the worker heterogeneity the
	// spot-checking process exists to catch. Defaults to 0.02.
	Jitter float64
	// EntryPassScore is the minimum score on the 10-item entry test
	// (fraction). Defaults to 0.9 (the paper's 90%).
	EntryPassScore float64
	// RetestEvery inserts a gold test question every Nth document.
	// Defaults to 10 (the paper re-tested every tenth document).
	RetestEvery int
	// RemoveBelowScore removes annotators whose rolling gold score
	// falls below this fraction. Defaults to 0.85 (the paper's 85%).
	RemoveBelowScore float64
}

func (c *PoolConfig) fillDefaults() {
	if c.Size <= 0 {
		c.Size = 8
	}
	if c.Jitter == 0 {
		c.Jitter = 0.02
	}
	if c.EntryPassScore == 0 {
		c.EntryPassScore = 0.9
	}
	if c.RetestEvery <= 0 {
		c.RetestEvery = 10
	}
	if c.RemoveBelowScore == 0 {
		c.RemoveBelowScore = 0.85
	}
}

// CrowdConfig returns the calibrated crowd-pool configuration for a task.
// The accuracies are tuned so that two-rater agreement over a thresholded
// annotation pool reproduces the paper's kappa and disagreement levels:
// doxing annotation is the easier task (kappa 0.519, 3.94% disagreement),
// CTH the harder one (kappa 0.350, 18.66% disagreement).
func CrowdConfig(task Task) PoolConfig {
	if task == TaskCTH {
		return PoolConfig{TPR: 0.85, TNR: 0.95}
	}
	return PoolConfig{TPR: 0.72, TNR: 0.98}
}

// ExpertConfig returns the domain-expert configuration for a task
// (kappa 0.893 doxing / 0.845 CTH over high-precision pools).
func ExpertConfig(task Task) PoolConfig {
	if task == TaskCTH {
		return PoolConfig{Size: 3, TPR: 0.965, TNR: 0.965, Jitter: 0.005}
	}
	return PoolConfig{Size: 3, TPR: 0.975, TNR: 0.975, Jitter: 0.005}
}

// Pool is a gated annotator pool.
type Pool struct {
	cfg        PoolConfig
	annotators []*Annotator
	rng        *randx.Source
}

// NewPool creates a pool, running each candidate annotator through the
// 10-item entry test; candidates failing the 90% bar are replaced until
// the pool reaches its configured size (or a candidate budget runs out).
func NewPool(cfg PoolConfig, rng *randx.Source) *Pool {
	cfg.fillDefaults()
	p := &Pool{cfg: cfg, rng: rng.Split("pool")}
	candidateBudget := cfg.Size * 20
	n := 0
	for len(p.annotators) < cfg.Size && candidateBudget > 0 {
		candidateBudget--
		n++
		a := &Annotator{
			ID:  fmt.Sprintf("annotator-%03d", n),
			TPR: clampProb(cfg.TPR + (p.rng.Float64()*2-1)*cfg.Jitter),
			TNR: clampProb(cfg.TNR + (p.rng.Float64()*2-1)*cfg.Jitter),
		}
		if p.entryTest(a) {
			p.annotators = append(p.annotators, a)
		}
	}
	return p
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// entryTest administers the 10 synthetic training/test questions
// (balanced truth) and applies the entry bar.
func (p *Pool) entryTest(a *Annotator) bool {
	correct := 0
	for i := 0; i < 10; i++ {
		truth := i%2 == 0
		if a.Label(truth, p.rng) == truth {
			correct++
		}
	}
	return float64(correct)/10 >= p.cfg.EntryPassScore
}

// Active returns the annotators not removed by gating.
func (p *Pool) Active() []*Annotator {
	var out []*Annotator
	for _, a := range p.annotators {
		if !a.removed {
			out = append(out, a)
		}
	}
	return out
}

// Removed returns the annotators removed by the rolling re-test gate.
func (p *Pool) Removed() []*Annotator {
	var out []*Annotator
	for _, a := range p.annotators {
		if a.removed {
			out = append(out, a)
		}
	}
	return out
}

// Stats summarises an annotation run.
type Stats struct {
	Items            int
	Disagreements    int
	DisagreementRate float64
	// Kappa is Cohen's kappa over the first two annotators' labels.
	Kappa float64
	// KappaBand is the qualitative agreement band for Kappa.
	KappaBand string
	// RemovedAnnotators counts annotators removed mid-run by re-testing.
	RemovedAnnotators int
}

// Annotate runs the two-annotator + tie-break protocol over the items,
// inserting a gold re-test question for each annotator every RetestEvery
// documents and removing annotators whose rolling score drops below the
// removal bar (as long as at least three annotators remain).
func (p *Pool) Annotate(items []Item) ([]Decision, Stats, error) {
	if len(p.Active()) < 3 {
		return nil, Stats{}, fmt.Errorf("annotate: pool has %d active annotators, need at least 3", len(p.Active()))
	}
	decisions := make([]Decision, 0, len(items))
	var firstLabels, secondLabels []string
	removedDuringRun := 0

	for i, item := range items {
		active := p.Active()
		if len(active) < 3 {
			// Keep the protocol runnable: reinstate the least-bad
			// removed annotator (in practice the service replaces
			// workers; reinstating keeps the simulation closed).
			for _, a := range p.annotators {
				if a.removed {
					a.removed = false
					a.goldSeen, a.goldCorrect = 0, 0
					active = p.Active()
					break
				}
			}
		}
		// Rotate annotator assignment deterministically.
		a1 := active[i%len(active)]
		a2 := active[(i+1)%len(active)]

		// Gold re-test questions.
		if p.cfg.RetestEvery > 0 && i > 0 && i%p.cfg.RetestEvery == 0 {
			for _, a := range []*Annotator{a1, a2} {
				truth := p.rng.Bool(0.5)
				a.goldSeen++
				if a.Label(truth, p.rng) == truth {
					a.goldCorrect++
				}
				if a.goldSeen >= 4 && float64(a.goldCorrect)/float64(a.goldSeen) < p.cfg.RemoveBelowScore {
					if len(p.Active()) > 3 {
						a.removed = true
						removedDuringRun++
					}
				}
			}
		}

		l1 := a1.Label(item.Truth, p.rng)
		l2 := a2.Label(item.Truth, p.rng)
		d := Decision{ID: item.ID, First: l1, Second: l2}
		if l1 == l2 {
			d.Label = l1
		} else {
			d.Disagreed = true
			// Third annotator breaks the tie.
			a3 := active[(i+2)%len(active)]
			d.Label = a3.Label(item.Truth, p.rng)
		}
		decisions = append(decisions, d)
		firstLabels = append(firstLabels, boolLabel(l1))
		secondLabels = append(secondLabels, boolLabel(l2))
	}

	st := Stats{Items: len(items), RemovedAnnotators: removedDuringRun}
	for _, d := range decisions {
		if d.Disagreed {
			st.Disagreements++
		}
	}
	if len(items) > 0 {
		st.DisagreementRate = float64(st.Disagreements) / float64(len(items))
		if k, err := stats.CohensKappa(firstLabels, secondLabels); err == nil {
			st.Kappa = k
			st.KappaBand = stats.KappaInterpretation(k)
		}
	}
	return decisions, st, nil
}

func boolLabel(b bool) string {
	if b {
		return "positive"
	}
	return "negative"
}

// SpotCheckResult reports a §5.3-style quality pass over delivered
// crowd annotations: "We established a spot-checking process ...
// reviewing random samples of annotations in order to keep track of poor
// annotator performance. In addition, one of the authors reviewed all
// positive labeled annotations from the third-party annotation service
// after data set delivery."
type SpotCheckResult struct {
	// SampledAccuracy is the expert-measured accuracy on the random
	// spot-check sample.
	SampledAccuracy float64
	SampleSize      int
	// PositivesReviewed is the number of positive-labelled decisions
	// re-reviewed by the expert pass.
	PositivesReviewed int
	// PositivesOverturned counts positives the review flipped to
	// negative (crowd false positives).
	PositivesOverturned int
}

// SpotCheck reviews crowd decisions: a random sample of size sampleN is
// re-annotated to estimate accuracy, and every positive-labelled decision
// is re-reviewed (and corrected in place) by the expert pool. items and
// decisions must be parallel.
func SpotCheck(items []Item, decisions []Decision, experts *Pool, sampleN int, rng *randx.Source) (SpotCheckResult, error) {
	var res SpotCheckResult
	if len(items) != len(decisions) {
		return res, fmt.Errorf("annotate: spot check: %d items vs %d decisions", len(items), len(decisions))
	}
	if len(items) == 0 {
		return res, nil
	}

	// Random sample accuracy estimate.
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	randx.Shuffle(rng, idx)
	if sampleN <= 0 || sampleN > len(idx) {
		sampleN = len(idx)
	}
	sampleItems := make([]Item, sampleN)
	for j := 0; j < sampleN; j++ {
		sampleItems[j] = items[idx[j]]
	}
	sampleDecisions, _, err := experts.Annotate(sampleItems)
	if err != nil {
		return res, err
	}
	agree := 0
	for j := 0; j < sampleN; j++ {
		if sampleDecisions[j].Label == decisions[idx[j]].Label {
			agree++
		}
	}
	res.SampleSize = sampleN
	res.SampledAccuracy = float64(agree) / float64(sampleN)

	// Author review of every positive label, correcting in place.
	var posIdx []int
	var posItems []Item
	for i := range decisions {
		if decisions[i].Label {
			posIdx = append(posIdx, i)
			posItems = append(posItems, items[i])
		}
	}
	if len(posItems) > 0 {
		reviewed, _, err := experts.Annotate(posItems)
		if err != nil {
			return res, err
		}
		for j, i := range posIdx {
			res.PositivesReviewed++
			if !reviewed[j].Label {
				decisions[i].Label = false
				res.PositivesOverturned++
			}
		}
	}
	return res, nil
}

// TaskTemplate renders the crowdsourcing task template of Figure 3: the
// question, the label options, and the annotation guide extract shown to
// workers. It is a structural artifact (the paper redacts the content).
func TaskTemplate(task Task) string {
	definition := "a third party posts, broadcasts or publishes personal information about an individual without their consent and with the intention to do harm"
	question := "Does the text contain a dox?"
	if task == TaskCTH {
		definition = "an individual attempts to mobilize others online to collaborate to conduct online harassment"
		question = "Does the text contain a call to harassment?"
	}
	return fmt.Sprintf(`ANNOTATION TASK: %s
Definition: %q.
Instructions: read only the text below. Do not open URLs. Do not search
for any names, handles or other information contained in the post.
%s
  [ ] Yes   [ ] No   [ ] Unsure
`, task, definition, question)
}
