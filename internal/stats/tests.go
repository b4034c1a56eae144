package stats

import (
	"math"
	"sort"
)

// TTestResult reports a two-sample t-test.
type TTestResult struct {
	T        float64 // t statistic
	DF       float64 // degrees of freedom (Welch–Satterthwaite)
	P        float64 // two-sided p-value
	MeanDiff float64 // mean(a) - mean(b)
}

// WelchTTest performs a two-sample t-test with unequal variances (Welch's
// test), as used by the paper to compare the (log) size of threads
// containing calls to harassment against a random baseline (§6.3). It
// returns ErrInsufficientData unless both samples have at least two
// observations.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	var t float64
	if se == 0 {
		if ma == mb {
			t = 0
		} else {
			t = math.Inf(1)
			if ma < mb {
				t = math.Inf(-1)
			}
		}
	} else {
		t = (ma - mb) / se
	}
	// Welch–Satterthwaite degrees of freedom.
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	if math.IsNaN(df) || df <= 0 {
		df = na + nb - 2
	}
	p := StudentTSurvivalTwoSided(t, df)
	if math.IsInf(t, 0) {
		p = 0
	}
	return TTestResult{T: t, DF: df, P: p, MeanDiff: ma - mb}, nil
}

// ChiSquareResult reports a chi-square test.
type ChiSquareResult struct {
	Statistic float64
	DF        float64
	P         float64
}

// ChiSquareIndependence performs a chi-square test of independence over an
// r x c contingency table (used when comparing attack-subcategory
// distributions across data sets).
func ChiSquareIndependence(table [][]float64) (ChiSquareResult, error) {
	r := len(table)
	if r < 2 {
		return ChiSquareResult{}, ErrInsufficientData
	}
	c := len(table[0])
	if c < 2 {
		return ChiSquareResult{}, ErrInsufficientData
	}
	rowSums := make([]float64, r)
	colSums := make([]float64, c)
	total := 0.0
	for i, row := range table {
		if len(row) != c {
			return ChiSquareResult{}, ErrInsufficientData
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return ChiSquareResult{}, ErrInsufficientData
			}
			rowSums[i] += v
			colSums[j] += v
			total += v
		}
	}
	if total == 0 {
		return ChiSquareResult{}, ErrInsufficientData
	}
	stat := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			e := rowSums[i] * colSums[j] / total
			if e == 0 {
				continue
			}
			d := table[i][j] - e
			stat += d * d / e
		}
	}
	df := float64((r - 1) * (c - 1))
	return ChiSquareResult{Statistic: stat, DF: df, P: ChiSquareSurvival(stat, df)}, nil
}

// BHResult is the outcome of the Benjamini–Hochberg procedure for one
// hypothesis.
type BHResult struct {
	Index    int     // index into the original p-value slice
	P        float64 // raw p-value
	Adjusted float64 // BH-adjusted p-value
	Rejected bool    // true if the hypothesis is rejected at the given FDR
}

// BenjaminiHochberg applies the Benjamini–Hochberg false-discovery-rate
// procedure at rate q to the given p-values (the paper corrects its
// thread-response t-tests with BH at a default error rate of 0.1).
// Results are returned in the original input order.
func BenjaminiHochberg(pvals []float64, q float64) []BHResult {
	n := len(pvals)
	results := make([]BHResult, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pvals[order[a]] < pvals[order[b]] })

	// Find the largest k with p_(k) <= k/n * q.
	cutoffRank := -1
	for rank, idx := range order {
		if pvals[idx] <= float64(rank+1)/float64(n)*q {
			cutoffRank = rank
		}
	}
	// Adjusted p-values: p_adj(k) = min over j >= k of (n/j) p_(j), capped at 1.
	adj := make([]float64, n)
	running := math.Inf(1)
	for rank := n - 1; rank >= 0; rank-- {
		idx := order[rank]
		v := pvals[idx] * float64(n) / float64(rank+1)
		if v < running {
			running = v
		}
		adj[rank] = math.Min(running, 1)
	}
	for rank, idx := range order {
		results[idx] = BHResult{
			Index:    idx,
			P:        pvals[idx],
			Adjusted: adj[rank],
			Rejected: rank <= cutoffRank,
		}
	}
	return results
}

// CohensKappa computes Cohen's kappa agreement between two raters whose
// labels over the same items are given in a and b. Labels are compared as
// strings; the slices must be equal-length and non-empty.
//
// The paper reports kappa 0.519 (crowd, doxing), 0.350 (crowd, CTH),
// 0.893 (experts, doxing) and 0.845 (experts, CTH).
func CohensKappa(a, b []string) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, ErrInsufficientData
	}
	n := float64(len(a))
	countsA := map[string]float64{}
	countsB := map[string]float64{}
	agree := 0.0
	for i := range a {
		countsA[a[i]]++
		countsB[b[i]]++
		if a[i] == b[i] {
			agree++
		}
	}
	po := agree / n
	pe := 0.0
	for label, ca := range countsA {
		pe += (ca / n) * (countsB[label] / n)
	}
	if pe == 1 {
		// Both raters used a single identical label for everything;
		// agreement is perfect but kappa is undefined. Follow the common
		// convention of reporting 1.
		return 1, nil
	}
	return (po - pe) / (1 - pe), nil
}

// KappaInterpretation returns the conventional Landis–Koch qualitative
// band for a kappa value, matching the language the paper uses
// ("moderate agreement (0.519)", "fair agreement (0.350)", "strong").
func KappaInterpretation(kappa float64) string {
	switch {
	case kappa < 0:
		return "poor"
	case kappa <= 0.20:
		return "slight"
	case kappa <= 0.40:
		return "fair"
	case kappa <= 0.60:
		return "moderate"
	case kappa <= 0.80:
		return "substantial"
	default:
		return "strong"
	}
}
