// Package threshold implements the paper's threshold-selection procedure
// (§5.5): starting from the standard 0.5 threshold, a random sample of
// documents scoring above the candidate threshold is manually annotated
// to estimate precision; the threshold is raised while precision is too
// low to support manual annotation, and once precision is sufficiently
// high, a step back down is probed — if precision holds, the lower
// threshold is kept to protect recall.
package threshold

import (
	"errors"
	"sort"

	"harassrepro/internal/annotate"
	"harassrepro/internal/randx"
)

// ErrNoCandidates is returned when no documents score above the starting
// threshold.
var ErrNoCandidates = errors.New("threshold: no documents above starting threshold")

// ScoredDoc is a classifier-scored document.
type ScoredDoc struct {
	ID    string
	Score float64
	// Truth is the hidden ground truth consulted by the simulated
	// expert annotators who estimate precision.
	Truth bool
}

// Config controls the search.
type Config struct {
	// Start is the initial threshold. Defaults to 0.5 ("the standard
	// threshold").
	Start float64
	// Ladder is the ordered set of candidate thresholds explored when
	// raising. Defaults to the paper's observed operating points.
	Ladder []float64
	// TargetPrecision is the precision at which raising stops.
	// Defaults to 0.75.
	TargetPrecision float64
	// HoldTolerance is how much precision may drop at the probed lower
	// threshold while still keeping it. Defaults to 0.05.
	HoldTolerance float64
	// SampleSize is the number of above-threshold documents annotated
	// per evaluation. Defaults to 300.
	SampleSize int
	// Seed drives sampling.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Start == 0 {
		c.Start = 0.5
	}
	if len(c.Ladder) == 0 {
		c.Ladder = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.935, 0.96, 0.98}
	}
	if c.TargetPrecision == 0 {
		c.TargetPrecision = 0.75
	}
	if c.HoldTolerance == 0 {
		c.HoldTolerance = 0.05
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 300
	}
}

// Evaluation is one manual-annotation precision estimate.
type Evaluation struct {
	Threshold      float64
	AboveThreshold int
	Annotated      int
	TruePositives  int
	Precision      float64
}

// Selection is the procedure outcome.
type Selection struct {
	Threshold      float64
	Precision      float64
	AboveThreshold int
	Trail          []Evaluation
}

// Annotator estimates labels for a batch of items. *annotate.Pool
// satisfies it; tests substitute deterministic fakes.
type Annotator interface {
	Annotate(items []annotate.Item) ([]annotate.Decision, annotate.Stats, error)
}

// Select runs the §5.5 procedure over scored documents using the expert
// annotator pool to estimate precision at each candidate threshold.
//
// The docs slice is snapshotted on entry: selection is pinned to the
// scores it was handed even if the caller's slice is re-scored by a
// newer model generation mid-search, so every evaluation in the trail
// reads one generation's scores.
func Select(docs []ScoredDoc, experts Annotator, cfg Config) (Selection, error) {
	cfg.fillDefaults()
	docs = append([]ScoredDoc(nil), docs...)
	rng := randx.New(cfg.Seed).Split("threshold")

	evaluate := func(t float64) (Evaluation, error) {
		var above []ScoredDoc
		for _, d := range docs {
			if d.Score > t {
				above = append(above, d)
			}
		}
		ev := Evaluation{Threshold: t, AboveThreshold: len(above)}
		if len(above) == 0 {
			return ev, nil
		}
		sample := above
		if len(sample) > cfg.SampleSize {
			cp := append([]ScoredDoc(nil), above...)
			randx.Shuffle(rng, cp)
			sample = cp[:cfg.SampleSize]
		}
		items := make([]annotate.Item, len(sample))
		for i, d := range sample {
			items[i] = annotate.Item{ID: d.ID, Truth: d.Truth}
		}
		decisions, _, err := experts.Annotate(items)
		if err != nil {
			return ev, err
		}
		for _, d := range decisions {
			if d.Label {
				ev.TruePositives++
			}
		}
		ev.Annotated = len(items)
		ev.Precision = float64(ev.TruePositives) / float64(len(items))
		return ev, nil
	}

	// Ladder positions at or above the start.
	ladder := append([]float64(nil), cfg.Ladder...)
	sort.Float64s(ladder)
	startIdx := 0
	for i, t := range ladder {
		if t >= cfg.Start {
			startIdx = i
			break
		}
	}

	var trail []Evaluation
	chosenIdx := -1
	for i := startIdx; i < len(ladder); i++ {
		ev, err := evaluate(ladder[i])
		if err != nil {
			return Selection{}, err
		}
		trail = append(trail, ev)
		if ev.AboveThreshold == 0 {
			break
		}
		if ev.Precision >= cfg.TargetPrecision {
			chosenIdx = i
			break
		}
	}
	if len(trail) == 0 || trail[0].AboveThreshold == 0 {
		return Selection{}, ErrNoCandidates
	}
	if chosenIdx == -1 {
		// Precision never reached the target; keep the highest evaluated
		// threshold that still has candidates.
		best := trail[0]
		for _, ev := range trail {
			if ev.AboveThreshold > 0 && ev.Precision >= best.Precision {
				best = ev
			}
		}
		return Selection{Threshold: best.Threshold, Precision: best.Precision, AboveThreshold: best.AboveThreshold, Trail: trail}, nil
	}

	chosen := trail[len(trail)-1]
	// Probe one step down: if precision holds (within tolerance), keep
	// the lower threshold for recall.
	if chosenIdx > startIdx {
		lower, err := evaluate(ladder[chosenIdx-1])
		if err != nil {
			return Selection{}, err
		}
		trail = append(trail, lower)
		if lower.Precision >= chosen.Precision-cfg.HoldTolerance {
			chosen = lower
		}
	}
	return Selection{
		Threshold:      chosen.Threshold,
		Precision:      chosen.Precision,
		AboveThreshold: chosen.AboveThreshold,
		Trail:          trail,
	}, nil
}
