// Package active implements the paper's active-learning loop (§5.3): a
// cyclical process that trains a fine-tuned classifier on the labelled
// data so far, predicts the entire pool, stratifies the predictions into
// ten equal score ranges between 0.0 and 1.0, samples evenly from each
// range, sends the sample to crowd annotators, folds the new labels into
// the training set, and repeats (the paper ran two iterations per data
// set per task).
package active

import (
	"errors"
	"sort"

	"harassrepro/internal/annotate"
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/randx"
)

// ErrEmptyPool is returned when Run is called without a prediction pool.
var ErrEmptyPool = errors.New("active: empty instance pool")

// Instance is one unlabelled pool document.
type Instance struct {
	ID string
	X  features.Vector
	// Truth is the hidden ground-truth label, visible only to the
	// simulated annotators.
	Truth bool
}

// Strategy selects how the loop picks documents to annotate each
// iteration.
type Strategy int

const (
	// StrategyStratified is the paper's approach: segment predictions
	// into equal score ranges and sample evenly from each (§5.3).
	StrategyStratified Strategy = iota
	// StrategyUncertainty annotates the documents the classifier is
	// least sure about (scores nearest 0.5) — the classic
	// uncertainty-sampling alternative.
	StrategyUncertainty
	// StrategyRandom annotates a uniform random sample — the control.
	StrategyRandom
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyUncertainty:
		return "uncertainty"
	case StrategyRandom:
		return "random"
	default:
		return "stratified"
	}
}

// Config controls the loop.
type Config struct {
	// Strategy selects the sampling approach. Defaults to
	// StrategyStratified (the paper's).
	Strategy Strategy
	// Bins is the number of score strata. Defaults to 10 (the paper
	// "segmented the predicted data into 10 ranges between 0.0 and 1.0").
	Bins int
	// PerBin is the number of documents sampled from each stratum per
	// iteration. Defaults to 50.
	PerBin int
	// Iterations is the number of sample-annotate-retrain cycles.
	// Defaults to 2 (the paper repeated the process twice per data set).
	Iterations int
	// Model configures the underlying classifier training.
	Model model.LogRegConfig
	// Seed drives sampling.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Bins <= 0 {
		c.Bins = 10
	}
	if c.PerBin <= 0 {
		c.PerBin = 50
	}
	if c.Iterations <= 0 {
		c.Iterations = 2
	}
}

// IterationStats records one loop iteration.
type IterationStats struct {
	Iteration    int
	TrainSize    int
	Sampled      int
	NewPositives int
	// AUC is measured against the pool's hidden ground truth, standing
	// in for the paper's withheld evaluation annotations.
	AUC float64
}

// Result is the outcome of the loop.
type Result struct {
	Model    *model.LogReg
	Labelled []model.Example
	// PoolIndices is parallel to Labelled: the pool index each example
	// came from, or -1 for seed examples. It lets callers trace labels
	// back to documents (e.g. for the §5.3 spot-check review).
	PoolIndices []int
	History     []IterationStats
}

// Run executes the active-learning loop: seed examples bootstrap the
// first classifier; each iteration stratified-samples the pool, has the
// annotator pool label the sample, and retrains.
func Run(seed []model.Example, pool []Instance, annotators *annotate.Pool, cfg Config) (Result, error) {
	cfg.fillDefaults()
	if len(pool) == 0 {
		return Result{}, ErrEmptyPool
	}
	if len(seed) == 0 {
		return Result{}, model.ErrNoTrainingData
	}
	rng := randx.New(cfg.Seed).Split("active")

	labelled := append([]model.Example(nil), seed...)
	poolIndices := make([]int, len(seed))
	for i := range poolIndices {
		poolIndices[i] = -1
	}
	taken := make([]bool, len(pool)) // pool indices already annotated
	var history []IterationStats
	var m *model.LogReg
	var err error

	for iter := 1; iter <= cfg.Iterations; iter++ {
		m, err = model.TrainLogReg(labelled, cfg.Model)
		if err != nil {
			return Result{}, err
		}

		// Predict the entire pool.
		scores := make([]float64, len(pool))
		truths := make([]bool, len(pool))
		for i := range pool {
			scores[i] = m.Score(pool[i].X)
			truths[i] = pool[i].Truth
		}

		sampleIdx := sample(cfg, scores, taken, rng)
		sort.Ints(sampleIdx)

		// Crowd-annotate the sample.
		items := make([]annotate.Item, len(sampleIdx))
		for j, i := range sampleIdx {
			items[j] = annotate.Item{ID: pool[i].ID, Truth: pool[i].Truth}
		}
		decisions, _, err := annotators.Annotate(items)
		if err != nil {
			return Result{}, err
		}
		newPos := 0
		for j, d := range decisions {
			i := sampleIdx[j]
			taken[i] = true
			labelled = append(labelled, model.Example{X: pool[i].X, Y: d.Label})
			poolIndices = append(poolIndices, i)
			if d.Label {
				newPos++
			}
		}
		history = append(history, IterationStats{
			Iteration:    iter,
			TrainSize:    len(labelled),
			Sampled:      len(sampleIdx),
			NewPositives: newPos,
			AUC:          model.AUCROC(scores, truths),
		})
	}

	// Final retrain on everything gathered.
	m, err = model.TrainLogReg(labelled, cfg.Model)
	if err != nil {
		return Result{}, err
	}
	return Result{Model: m, Labelled: labelled, PoolIndices: poolIndices, History: history}, nil
}

// sample selects the iteration's annotation candidates per the strategy.
// The per-iteration budget is Bins*PerBin for every strategy, so regimes
// are comparable.
func sample(cfg Config, scores []float64, taken []bool, rng *randx.Source) []int {
	budget := cfg.Bins * cfg.PerBin
	avail := make([]int, 0, len(scores))
	for i := range scores {
		if !taken[i] {
			avail = append(avail, i)
		}
	}
	switch cfg.Strategy {
	case StrategyUncertainty:
		// Closest to the decision boundary first.
		sort.Slice(avail, func(a, b int) bool {
			da := scores[avail[a]] - 0.5
			if da < 0 {
				da = -da
			}
			db := scores[avail[b]] - 0.5
			if db < 0 {
				db = -db
			}
			if da != db {
				return da < db
			}
			return avail[a] < avail[b]
		})
		if len(avail) > budget {
			avail = avail[:budget]
		}
		return avail
	case StrategyRandom:
		randx.Shuffle(rng, avail)
		if len(avail) > budget {
			avail = avail[:budget]
		}
		return avail
	default: // StrategyStratified
		bins := make([][]int, cfg.Bins)
		for _, i := range avail {
			b := min(int(scores[i]*float64(cfg.Bins)), cfg.Bins-1)
			bins[b] = append(bins[b], i)
		}
		out := make([]int, 0, min(budget, len(avail)))
		for _, bin := range bins {
			randx.Shuffle(rng, bin)
			out = append(out, bin[:min(cfg.PerBin, len(bin))]...)
		}
		return out
	}
}
