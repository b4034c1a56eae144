package model

import (
	"math"
	"testing"

	"harassrepro/internal/features"
	"harassrepro/internal/randx"
)

// synthExamples builds a linearly separable-ish two-cluster problem:
// positives use tokens from posVocab, negatives from negVocab, with some
// shared noise tokens.
func synthExamples(n int, seed uint64, h *features.Hasher) []Example {
	rng := randx.New(seed)
	posVocab := []string{"report", "raid", "dox", "spam", "mass", "flag"}
	negVocab := []string{"cat", "lunch", "game", "music", "movie", "coffee"}
	shared := []string{"the", "a", "and", "today", "we"}
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		y := i%2 == 0
		vocab := negVocab
		if y {
			vocab = posVocab
		}
		toks := make([]string, 0, 12)
		for j := 0; j < 8; j++ {
			toks = append(toks, randx.Pick(rng, vocab))
		}
		for j := 0; j < 4; j++ {
			toks = append(toks, randx.Pick(rng, shared))
		}
		out = append(out, Example{X: h.Vectorize(toks), Y: y})
	}
	return out
}

func TestLogRegLearnsSeparableProblem(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	train := synthExamples(400, 1, h)
	test := synthExamples(200, 2, h)
	m, err := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(m, test, 0.5, "pos", "neg")
	if rep.Positive.F1 < 0.95 {
		t.Fatalf("F1 = %v on separable problem", rep.Positive.F1)
	}
	if rep.AUC < 0.99 {
		t.Fatalf("AUC = %v on separable problem", rep.AUC)
	}
}

func TestLogRegScoreIsProbability(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	train := synthExamples(100, 4, h)
	m, err := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Epochs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range train {
		p := m.Score(ex.X)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("score out of [0,1]: %v", p)
		}
	}
}

func TestLogRegDeterministic(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 12})
	train := synthExamples(100, 6, h)
	m1, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 12, Seed: 7})
	m2, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 12, Seed: 7})
	probe := synthExamples(10, 8, h)
	for _, ex := range probe {
		if m1.Score(ex.X) != m2.Score(ex.X) {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

func TestLogRegEmptyTraining(t *testing.T) {
	if _, err := TrainLogReg(nil, LogRegConfig{}); err != ErrNoTrainingData {
		t.Fatalf("err = %v", err)
	}
}

func TestLogRegClassWeighting(t *testing.T) {
	// Heavily imbalanced data: without weighting, recall suffers; with
	// positive weighting, recall should improve.
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	rng := randx.New(9)
	var train []Example
	// 5% positives with a weak signal (overlapping vocab).
	vocabPos := []string{"report", "flag", "the", "we", "today", "game"}
	vocabNeg := []string{"cat", "game", "the", "we", "today", "music"}
	for i := 0; i < 2000; i++ {
		y := i%20 == 0
		vocab := vocabNeg
		if y {
			vocab = vocabPos
		}
		toks := make([]string, 6)
		for j := range toks {
			toks[j] = randx.Pick(rng, vocab)
		}
		train = append(train, Example{X: h.Vectorize(toks), Y: y})
	}
	unweighted, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Epochs: 3, Seed: 1})
	weighted, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Epochs: 3, Seed: 1, ClassWeightPositive: 10})
	ru := Evaluate(unweighted, train, 0.5, "p", "n")
	rw := Evaluate(weighted, train, 0.5, "p", "n")
	if rw.Positive.Recall < ru.Positive.Recall {
		t.Fatalf("class weighting reduced recall: %v -> %v", ru.Positive.Recall, rw.Positive.Recall)
	}
}

func TestLogRegLossDecreases(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	train := synthExamples(300, 10, h)
	short, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Epochs: 1, Seed: 11})
	long, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Epochs: 10, Seed: 11})
	if logLoss(long, train) > logLoss(short, train) {
		t.Fatalf("more epochs increased loss: %v -> %v", logLoss(short, train), logLoss(long, train))
	}
}

// logLoss returns the mean log-loss of m over the examples.
func logLoss(m *LogReg, examples []Example) float64 {
	const eps = 1e-12
	sum := 0.0
	for _, ex := range examples {
		p := m.Score(ex.X)
		if ex.Y {
			sum += -math.Log(math.Max(p, eps))
		} else {
			sum += -math.Log(math.Max(1-p, eps))
		}
	}
	return sum / float64(len(examples))
}

func TestNaiveBayesLearnsSeparableProblem(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	train := synthExamples(400, 12, h)
	test := synthExamples(200, 13, h)
	nb, err := TrainNaiveBayes(train, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	var conf Confusion
	for _, ex := range test {
		conf.Add(nb.Score(ex.X) > 0.5, ex.Y)
	}
	if conf.F1() < 0.95 {
		t.Fatalf("NB F1 = %v", conf.F1())
	}
}

func TestNaiveBayesSingleClass(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 12})
	var train []Example
	for i := 0; i < 10; i++ {
		train = append(train, Example{X: h.Vectorize([]string{"benign"}), Y: false})
	}
	nb, err := TrainNaiveBayes(train, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	p := nb.Score(h.Vectorize([]string{"benign"}))
	if p > 0.5 {
		t.Fatalf("all-negative training scored positive: %v", p)
	}
}

func TestNaiveBayesEmptyTraining(t *testing.T) {
	if _, err := TrainNaiveBayes(nil, 1024); err != ErrNoTrainingData {
		t.Fatalf("err = %v", err)
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 4, TN: 86}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); !almost(got, 8.0/12.0) {
		t.Errorf("Recall = %v", got)
	}
	wantF1 := 2 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0/12.0)
	if got := c.F1(); !almost(got, wantF1) {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
	inv := c.Invert()
	if inv.TP != 86 || inv.FN != 2 || inv.FP != 4 {
		t.Errorf("Invert = %+v", inv)
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should produce zeros")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAUCROCKnown(t *testing.T) {
	// Perfect ranking.
	if got := AUCROC([]float64{0.1, 0.2, 0.8, 0.9}, []bool{false, false, true, true}); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	// Inverted ranking.
	if got := AUCROC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{false, false, true, true}); got != 0 {
		t.Errorf("inverted AUC = %v", got)
	}
	// All tied scores -> 0.5 by midranks.
	if got := AUCROC([]float64{0.5, 0.5, 0.5, 0.5}, []bool{false, true, false, true}); got != 0.5 {
		t.Errorf("tied AUC = %v", got)
	}
	// Single class -> NaN.
	if got := AUCROC([]float64{0.5, 0.7}, []bool{true, true}); !math.IsNaN(got) {
		t.Errorf("single-class AUC = %v", got)
	}
	if got := AUCROC(nil, nil); !math.IsNaN(got) {
		t.Errorf("empty AUC = %v", got)
	}
}

func TestAUCROCHandComputed(t *testing.T) {
	// scores: pos {0.8, 0.4}, neg {0.6, 0.2}.
	// Pairs: (0.8>0.6)=1, (0.8>0.2)=1, (0.4<0.6)=0, (0.4>0.2)=1 -> 3/4.
	got := AUCROC([]float64{0.8, 0.4, 0.6, 0.2}, []bool{true, true, false, false})
	if got != 0.75 {
		t.Errorf("AUC = %v, want 0.75", got)
	}
}

func TestEvaluateReportStructure(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	train := synthExamples(200, 14, h)
	m, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Seed: 15})
	rep := Evaluate(m, train, 0.5, "Dox", "No Dox")
	if rep.Positive.Label != "Dox" || rep.Negative.Label != "No Dox" {
		t.Error("labels not propagated")
	}
	if rep.Positive.Support+rep.Negative.Support != 200 {
		t.Errorf("support totals = %d + %d", rep.Positive.Support, rep.Negative.Support)
	}
	// Macro = unweighted mean.
	if !almost(rep.MacroAvg.F1, (rep.Positive.F1+rep.Negative.F1)/2) {
		t.Error("macro F1 mismatch")
	}
	// Balanced classes: weighted == macro.
	if !almost(rep.WeightedAvg.F1, rep.MacroAvg.F1) {
		t.Error("balanced weighted != macro")
	}
}

func TestPrecisionAtThreshold(t *testing.T) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 14})
	train := synthExamples(400, 16, h)
	m, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 14, Seed: 17})
	at50 := Evaluate(m, train, 0.5, "pos", "neg").Positive
	at90 := Evaluate(m, train, 0.9, "pos", "neg").Positive
	if at90.Recall > at50.Recall {
		t.Errorf("higher threshold selected more: recall %v > %v", at90.Recall, at50.Recall)
	}
	if at90.Precision < at50.Precision-1e-9 {
		t.Errorf("higher threshold reduced precision: %v -> %v", at50.Precision, at90.Precision)
	}
}

func BenchmarkTrainLogReg(b *testing.B) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 16})
	train := synthExamples(1000, 1, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainLogReg(train, LogRegConfig{Buckets: 1 << 16, Epochs: 3, Seed: 1})
	}
}

func BenchmarkScore(b *testing.B) {
	h := features.NewHasher(features.HasherConfig{Buckets: 1 << 16})
	train := synthExamples(200, 1, h)
	m, _ := TrainLogReg(train, LogRegConfig{Buckets: 1 << 16, Seed: 1})
	x := train[0].X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(x)
	}
}
