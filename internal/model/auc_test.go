package model

import (
	"math"
	"sort"
	"testing"

	"harassrepro/internal/randx"
)

// referenceAUCROC is the index-sort implementation AUCROC replaced: it
// assigns midranks through a sorted permutation and sums them in label
// order. AUCROC must return the same bits.
func referenceAUCROC(scores []float64, labels []bool) float64 {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return math.NaN()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1 // 1-based midrank
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	var nPos, nNeg, rankSum float64
	for i, l := range labels {
		if l {
			nPos++
			rankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	u := rankSum - nPos*(nPos+1)/2
	return u / (nPos * nNeg)
}

// TestAUCROCMatchesReference compares the two on random inputs, from
// all-distinct scores to a handful of values shared by many documents
// (the tie groups the midrank rule is about).
func TestAUCROCMatchesReference(t *testing.T) {
	rng := randx.New(3)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3000)
		levels := []int{2, 7, 50, 0}[trial%4] // 0: continuous scores
		posRate := rng.Float64()
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			if levels == 0 {
				scores[i] = rng.Float64()
			} else {
				scores[i] = float64(rng.Intn(levels)) / float64(levels)
			}
			labels[i] = rng.Bool(posRate)
		}
		got, want := AUCROC(scores, labels), referenceAUCROC(scores, labels)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d (n=%d, levels=%d): AUCROC %v, reference %v", trial, n, levels, got, want)
		}
	}
}
