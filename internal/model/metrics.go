package model

import (
	"cmp"
	"math"
	"slices"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (predicted, actual) observation.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP / (TP + FP), or 0 when no positives were predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 0 when no actual positives exist.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Invert returns the confusion matrix of the negative class treated as
// positive, which is how Table 3 reports the "No Dox" / "No CTH" rows.
func (c Confusion) Invert() Confusion {
	return Confusion{TP: c.TN, TN: c.TP, FP: c.FN, FN: c.FP}
}

// LabelMetrics is one row of Table 3.
type LabelMetrics struct {
	Label     string
	F1        float64
	Precision float64
	Recall    float64
	Support   int
}

// Report mirrors the paper's Table 3 structure for one classifier: the
// positive row, the negative row, and weighted/macro averages.
type Report struct {
	Positive    LabelMetrics
	Negative    LabelMetrics
	WeightedAvg LabelMetrics
	MacroAvg    LabelMetrics
	AUC         float64
}

// Evaluate scores every example at the given threshold and produces a
// Table 3-style report. positiveLabel and negativeLabel name the rows
// (e.g. "Dox" / "No Dox").
func Evaluate(s Scorer, examples []Example, threshold float64, positiveLabel, negativeLabel string) Report {
	var conf Confusion
	scores := make([]float64, len(examples))
	labels := make([]bool, len(examples))
	for i, ex := range examples {
		p := s.Score(ex.X)
		scores[i] = p
		labels[i] = ex.Y
		conf.Add(p > threshold, ex.Y)
	}
	neg := conf.Invert()
	pos := LabelMetrics{
		Label: positiveLabel, F1: conf.F1(), Precision: conf.Precision(),
		Recall: conf.Recall(), Support: conf.TP + conf.FN,
	}
	negM := LabelMetrics{
		Label: negativeLabel, F1: neg.F1(), Precision: neg.Precision(),
		Recall: neg.Recall(), Support: neg.TP + neg.FN,
	}
	total := float64(pos.Support + negM.Support)
	weighted := LabelMetrics{Label: "Weighted Avg."}
	macro := LabelMetrics{Label: "Macro Avg."}
	if total > 0 {
		wp := float64(pos.Support) / total
		wn := float64(negM.Support) / total
		weighted.F1 = wp*pos.F1 + wn*negM.F1
		weighted.Precision = wp*pos.Precision + wn*negM.Precision
		weighted.Recall = wp*pos.Recall + wn*negM.Recall
		weighted.Support = int(total)
	}
	macro.F1 = (pos.F1 + negM.F1) / 2
	macro.Precision = (pos.Precision + negM.Precision) / 2
	macro.Recall = (pos.Recall + negM.Recall) / 2
	macro.Support = int(total)
	return Report{
		Positive:    pos,
		Negative:    negM,
		WeightedAvg: weighted,
		MacroAvg:    macro,
		AUC:         AUCROC(scores, labels),
	}
}

// AUCROC computes the area under the ROC curve via the rank statistic
// (equivalent to the Mann–Whitney U normalisation), with midrank handling
// of tied scores. Returns NaN when either class is absent.
func AUCROC(scores []float64, labels []bool) float64 {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return math.NaN()
	}
	type scored struct {
		s   float64
		pos bool
	}
	pts := make([]scored, n)
	for i := range pts {
		pts[i] = scored{scores[i], labels[i]}
	}
	slices.SortFunc(pts, func(a, b scored) int { return cmp.Compare(a.s, b.s) })
	// Every member of a tie group gets the group's 1-based midrank. The
	// midranks are multiples of 1/2, so the sum is exact in any order.
	var nPos, nNeg, rankSum float64
	for i := 0; i < n; {
		j := i + 1
		for j < n && pts[j].s == pts[i].s {
			j++
		}
		pos := 0
		for _, p := range pts[i:j] {
			if p.pos {
				pos++
			}
		}
		rankSum += float64(pos) * (float64(i+j-1)/2 + 1)
		nPos += float64(pos)
		nNeg += float64(j - i - pos)
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	u := rankSum - nPos*(nPos+1)/2
	return u / (nPos * nNeg)
}
