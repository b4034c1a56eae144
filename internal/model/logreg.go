// Package model implements the filtering classifiers and their evaluation
// metrics. The paper fine-tunes distilBERT; this reproduction substitutes
// an L2-regularised logistic regression over hashed sub-word features
// (see DESIGN.md §1) plus a multinomial naive Bayes baseline, and keeps
// the same evaluation surface: per-label precision/recall/F1 with
// weighted and macro averages (Table 3) and AUC-ROC for hyperparameter
// optimisation (§5.4).
package model

import (
	"errors"
	"math"

	"harassrepro/internal/features"
	"harassrepro/internal/randx"
)

// ErrNoTrainingData is returned when Fit is called without examples.
var ErrNoTrainingData = errors.New("model: no training data")

// Example is one labelled training instance.
type Example struct {
	X features.Vector
	Y bool // true = positive class (dox / call to harassment)
}

// Scorer produces a positive-class probability for a feature vector.
// Both classifier families implement it, as does the calibrated wrapper.
type Scorer interface {
	Score(x features.Vector) float64
}

// LogRegConfig configures logistic regression training.
type LogRegConfig struct {
	// Buckets is the feature space dimension (must match the hasher).
	Buckets uint32
	// Epochs over the training set. Defaults to 10.
	Epochs int
	// LearningRate is the initial SGD step size. Defaults to 0.5.
	LearningRate float64
	// L2 is the ridge penalty. Defaults to 1e-6.
	L2 float64
	// ClassWeightPositive scales the gradient of positive examples,
	// counteracting the extreme class imbalance of the filtering task
	// (positives are <5% of annotations, Table 2). Defaults to 1.
	ClassWeightPositive float64
	// Seed drives example shuffling.
	Seed uint64
}

func (c *LogRegConfig) fillDefaults() {
	if c.Buckets == 0 {
		c.Buckets = 1 << 18
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-6
	}
	if c.ClassWeightPositive <= 0 {
		c.ClassWeightPositive = 1
	}
}

// LogReg is a binary logistic regression classifier.
type LogReg struct {
	weights []float64
	bias    float64
	cfg     LogRegConfig
}

// TrainLogReg fits logistic regression on the examples with SGD.
func TrainLogReg(examples []Example, cfg LogRegConfig) (*LogReg, error) {
	cfg.fillDefaults()
	if len(examples) == 0 {
		return nil, ErrNoTrainingData
	}
	m := &LogReg{
		weights: make([]float64, cfg.Buckets),
		bias:    0,
		cfg:     cfg,
	}
	rng := randx.New(cfg.Seed)
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	step := cfg.LearningRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		randx.Shuffle(rng, order)
		// 1/t learning-rate decay.
		step = cfg.LearningRate / (1 + float64(epoch))
		for _, i := range order {
			ex := examples[i]
			p := m.Score(ex.X)
			target := 0.0
			w := 1.0
			if ex.Y {
				target = 1
				w = cfg.ClassWeightPositive
			}
			g := w * (p - target) // d(logloss)/d(margin)
			for j, idx := range ex.X.Indices {
				m.weights[idx] -= step * (g*ex.X.Values[j] + cfg.L2*m.weights[idx])
			}
			m.bias -= step * g
		}
	}
	return m, nil
}

// Score returns the positive-class probability sigma(w.x + b).
func (m *LogReg) Score(x features.Vector) float64 {
	return sigmoid(x.Dot(m.weights) + m.bias)
}

// Predict returns the hard label at the 0.5 threshold.
func (m *LogReg) Predict(x features.Vector) bool {
	return m.Score(x) > 0.5
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// NaiveBayes is a multinomial naive Bayes classifier with Laplace
// smoothing, the classical fast baseline for text filtering.
type NaiveBayes struct {
	logPrior    [2]float64
	logLik      [2]map[uint32]float64
	logLikMiss  [2]float64
	totalMass   [2]float64
	vocabSize   float64
	smoothAlpha float64
}

// TrainNaiveBayes fits the baseline on the examples. buckets is the hashed
// feature space size (the smoothing denominator).
func TrainNaiveBayes(examples []Example, buckets uint32) (*NaiveBayes, error) {
	if len(examples) == 0 {
		return nil, ErrNoTrainingData
	}
	nb := &NaiveBayes{
		logLik:      [2]map[uint32]float64{{}, {}},
		vocabSize:   float64(buckets),
		smoothAlpha: 1,
	}
	var classDocs [2]float64
	var counts [2]map[uint32]float64
	counts[0], counts[1] = map[uint32]float64{}, map[uint32]float64{}
	for _, ex := range examples {
		c := 0
		if ex.Y {
			c = 1
		}
		classDocs[c]++
		for j, idx := range ex.X.Indices {
			v := ex.X.Values[j]
			counts[c][idx] += v
			nb.totalMass[c] += v
		}
	}
	total := classDocs[0] + classDocs[1]
	for c := 0; c < 2; c++ {
		// Unseen classes get a tiny prior rather than -Inf.
		if classDocs[c] == 0 {
			nb.logPrior[c] = math.Log(0.5 / (total + 1))
		} else {
			nb.logPrior[c] = math.Log(classDocs[c] / total)
		}
		denom := nb.totalMass[c] + nb.smoothAlpha*nb.vocabSize
		for idx, cnt := range counts[c] {
			nb.logLik[c][idx] = math.Log((cnt + nb.smoothAlpha) / denom)
		}
		nb.logLikMiss[c] = math.Log(nb.smoothAlpha / denom)
	}
	return nb, nil
}

// Score returns the positive-class posterior probability.
func (nb *NaiveBayes) Score(x features.Vector) float64 {
	var logp [2]float64
	for c := 0; c < 2; c++ {
		lp := nb.logPrior[c]
		for j, idx := range x.Indices {
			v := x.Values[j]
			ll, ok := nb.logLik[c][idx]
			if !ok {
				ll = nb.logLikMiss[c]
			}
			lp += v * ll
		}
		logp[c] = lp
	}
	// Softmax over the two log-posteriors.
	m := math.Max(logp[0], logp[1])
	p0 := math.Exp(logp[0] - m)
	p1 := math.Exp(logp[1] - m)
	return p1 / (p0 + p1)
}

// Predict returns the hard label at the 0.5 threshold.
func (nb *NaiveBayes) Predict(x features.Vector) bool {
	return nb.Score(x) > 0.5
}
