package stats

import (
	"math"
	"testing"
)

func TestWelchTTestKnown(t *testing.T) {
	// Hand-computable case: mean(a)=3, mean(b)=5, var(a)=var(b)=2.5, n=5.
	// se = sqrt(0.5+0.5) = 1, t = -2.
	// Welch df = (0.5+0.5)^2 / (2 * 0.25/4) = 8.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{3, 4, 5, 6, 7}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.T, -2, 1e-12) {
		t.Errorf("T = %v, want -2", res.T)
	}
	if !almostEqual(res.DF, 8, 1e-9) {
		t.Errorf("DF = %v, want 8", res.DF)
	}
	// Two-sided p for |t|=2, df=8 is 0.08051 (t tables).
	if !almostEqual(res.P, 0.08051, 2e-4) {
		t.Errorf("P = %v, want ~0.0805", res.P)
	}
	if res.MeanDiff != -2 {
		t.Errorf("MeanDiff = %v, want -2", res.MeanDiff)
	}
}

func TestWelchTTestIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	res, err := WelchTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || !almostEqual(res.P, 1, 1e-12) {
		t.Errorf("identical samples: T=%v P=%v", res.T, res.P)
	}
}

func TestWelchTTestZeroVariance(t *testing.T) {
	res, err := WelchTTest([]float64{5, 5, 5}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.T, -1) || res.P != 0 {
		t.Errorf("zero-variance distinct means: T=%v P=%v", res.T, res.P)
	}
}

func TestWelchTTestInsufficient(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{2, 3}); err != ErrInsufficientData {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

func TestChiSquareIndependence(t *testing.T) {
	// Hand computation for [[10,20],[30,40]] without Yates correction:
	// expected = [[12,18],[28,42]];
	// stat = 4/12 + 4/18 + 4/28 + 4/42 = 0.79365079...
	res, err := ChiSquareIndependence([][]float64{{10, 20}, {30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Statistic, 0.7936507936507936, 1e-12) || res.DF != 1 {
		t.Errorf("res = %+v", res)
	}
	// For df=1, p = 2*(1 - Phi(sqrt(stat))) = erfc(sqrt(stat/2)).
	if want := math.Erfc(math.Sqrt(res.Statistic / 2)); !almostEqual(res.P, want, 1e-9) {
		t.Errorf("p = %v, want %v", res.P, want)
	}
}

func TestChiSquareIndependenceErrors(t *testing.T) {
	bad := [][][]float64{
		{{1, 2}},          // one row
		{{1}, {2}},        // one column
		{{1, 2}, {3}},     // ragged
		{{-1, 2}, {3, 4}}, // negative
		{{0, 0}, {0, 0}},  // all zero
	}
	for i, table := range bad {
		if _, err := ChiSquareIndependence(table); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	// Example with known outcome at q = 0.05:
	// sorted p: .001 .008 .039 .041 .042 .06 .074 .205 .212 .216
	// thresholds k/n*q: .005 .01 .015 .02 .025 .03 .035 .04 .045 .05
	// largest k with p <= threshold is k=2 (.008 <= .01); reject first two.
	pvals := []float64{0.205, 0.008, 0.039, 0.041, 0.001, 0.042, 0.06, 0.074, 0.212, 0.216}
	res := BenjaminiHochberg(pvals, 0.05)
	rejected := 0
	for _, r := range res {
		if r.Rejected {
			rejected++
			if r.P > 0.008 {
				t.Errorf("unexpectedly rejected p = %v", r.P)
			}
		}
	}
	if rejected != 2 {
		t.Errorf("rejected %d hypotheses, want 2", rejected)
	}
	// Adjusted p-values must be monotone in raw p order and >= raw p.
	for _, r := range res {
		if r.Adjusted < r.P-1e-12 || r.Adjusted > 1 {
			t.Errorf("bad adjusted p: raw=%v adj=%v", r.P, r.Adjusted)
		}
	}
	// Original order preserved.
	for i, r := range res {
		if r.Index != i || r.P != pvals[i] {
			t.Errorf("result %d out of order: %+v", i, r)
		}
	}
}

func TestBenjaminiHochbergAllSignificant(t *testing.T) {
	res := BenjaminiHochberg([]float64{0.0001, 0.0002, 0.0003}, 0.1)
	for _, r := range res {
		if !r.Rejected {
			t.Errorf("p = %v should be rejected", r.P)
		}
	}
}

func TestBenjaminiHochbergNoneSignificant(t *testing.T) {
	res := BenjaminiHochberg([]float64{0.5, 0.7, 0.9}, 0.05)
	for _, r := range res {
		if r.Rejected {
			t.Errorf("p = %v should not be rejected", r.P)
		}
	}
}

func TestBenjaminiHochbergEmpty(t *testing.T) {
	if res := BenjaminiHochberg(nil, 0.1); len(res) != 0 {
		t.Errorf("expected empty result, got %v", res)
	}
}

func TestCohensKappaKnown(t *testing.T) {
	// Textbook example: 2 raters, 50 items.
	// Rater A yes on 25, B yes on 30, both yes 20, both no 15.
	a := make([]string, 0, 50)
	b := make([]string, 0, 50)
	add := func(n int, la, lb string) {
		for i := 0; i < n; i++ {
			a = append(a, la)
			b = append(b, lb)
		}
	}
	add(20, "yes", "yes")
	add(5, "yes", "no")
	add(10, "no", "yes")
	add(15, "no", "no")
	k, err := CohensKappa(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// po = 0.70, pe = 0.5*0.6 + 0.5*0.4 = 0.5, kappa = 0.4.
	if !almostEqual(k, 0.4, 1e-12) {
		t.Errorf("kappa = %v, want 0.4", k)
	}
}

func TestCohensKappaPerfectAndChance(t *testing.T) {
	a := []string{"x", "y", "x", "y"}
	if k, _ := CohensKappa(a, a); !almostEqual(k, 1, 1e-12) {
		t.Errorf("perfect agreement kappa = %v", k)
	}
	// Constant identical labels: degenerate, conventionally 1.
	c := []string{"x", "x", "x"}
	if k, _ := CohensKappa(c, c); k != 1 {
		t.Errorf("degenerate kappa = %v", k)
	}
	if _, err := CohensKappa(nil, nil); err != ErrInsufficientData {
		t.Error("empty input should error")
	}
	if _, err := CohensKappa([]string{"a"}, []string{"a", "b"}); err != ErrInsufficientData {
		t.Error("length mismatch should error")
	}
}

func TestKappaInterpretationBands(t *testing.T) {
	cases := []struct {
		k    float64
		want string
	}{
		{-0.2, "poor"}, {0.1, "slight"}, {0.350, "fair"}, {0.519, "moderate"},
		{0.7, "substantial"}, {0.845, "strong"}, {0.893, "strong"},
	}
	for _, c := range cases {
		if got := KappaInterpretation(c.k); got != c.want {
			t.Errorf("KappaInterpretation(%v) = %q, want %q", c.k, got, c.want)
		}
	}
}
