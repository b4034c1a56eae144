package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestGammaIncPKnownValues(t *testing.T) {
	// Reference values from standard tables (scipy.special.gammainc).
	cases := []struct{ a, x, want float64 }{
		{1, 1, 0.6321205588285577},
		{1, 0, 0},
		{0.5, 0.5, 0.6826894921370859},
		{2, 2, 0.5939941502901616},
		{5, 1, 0.0036598468273437131},
		{5, 10, 0.9707473119230389},
		{10, 3, 0.0011024881301237366},
	}
	for _, c := range cases {
		got := 1 - GammaIncQ(c.a, c.x)
		if !almostEqual(got, c.want, 1e-10) {
			t.Errorf("1-GammaIncQ(%v,%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

// TestGammaIncComplement checks the series (x < a+1) and the continued
// fraction (x >= a+1) against each other through the recurrence
// Q(a+1, x) = Q(a, x) + x^a e^-x / Γ(a+1), whose two sides often take
// different expansions.
func TestGammaIncComplement(t *testing.T) {
	err := quick.Check(func(ai, xi uint16) bool {
		a := 0.1 + float64(ai%500)/10
		x := 0.1 + float64(xi%1000)/10
		lg, _ := math.Lgamma(a + 1)
		term := math.Exp(a*math.Log(x) - x - lg)
		return almostEqual(GammaIncQ(a+1, x), GammaIncQ(a, x)+term, 1e-9)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGammaIncInvalid(t *testing.T) {
	for _, c := range [][2]float64{{-1, 1}, {0, 1}, {1, -1}, {math.NaN(), 1}, {1, math.NaN()}} {
		if !math.IsNaN(GammaIncQ(c[0], c[1])) {
			t.Errorf("GammaIncQ(%v,%v) should be NaN", c[0], c[1])
		}
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// Reference values from scipy.special.betainc.
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.5, 0.5},
		{2, 2, 0.5, 0.5},
		{2, 5, 0.2, 0.34464},
		// Closed form: I_x(1/2, 1/2) = (2/pi) asin(sqrt(x)).
		{0.5, 0.5, 0.3, 2 / math.Pi * math.Asin(math.Sqrt(0.3))},
		{5, 2, 0.8, 0.65536},
		{10, 10, 0.5, 0.5},
	}
	for _, c := range cases {
		got := BetaInc(c.a, c.b, c.x)
		if !almostEqual(got, c.want, 1e-8) {
			t.Errorf("BetaInc(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestBetaIncBoundsAndSymmetry(t *testing.T) {
	if got := BetaInc(3, 4, 0); got != 0 {
		t.Errorf("BetaInc at x=0 = %v", got)
	}
	if got := BetaInc(3, 4, 1); got != 1 {
		t.Errorf("BetaInc at x=1 = %v", got)
	}
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	err := quick.Check(func(ai, bi, xi uint16) bool {
		a := 0.2 + float64(ai%100)/10
		b := 0.2 + float64(bi%100)/10
		x := float64(xi%1001) / 1000
		return almostEqual(BetaInc(a, b, x), 1-BetaInc(b, a, 1-x), 1e-9)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBetaIncInvalid(t *testing.T) {
	for _, c := range [][3]float64{{-1, 1, 0.5}, {1, 0, 0.5}, {1, 1, -0.1}, {1, 1, 1.1}, {math.NaN(), 1, 0.5}} {
		if !math.IsNaN(BetaInc(c[0], c[1], c[2])) {
			t.Errorf("BetaInc(%v,%v,%v) should be NaN", c[0], c[1], c[2])
		}
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Critical values: chi2(0.95, df=1)=3.841, df=5: 11.070, df=10: 18.307.
	cases := []struct{ x, df, want float64 }{
		{3.841458820694124, 1, 0.95},
		{11.070497693516351, 5, 0.95},
		{18.307038053275146, 10, 0.95},
		{0, 3, 0},
	}
	for _, c := range cases {
		got := 1 - ChiSquareSurvival(c.x, c.df)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("CDF(%v, df=%v) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
	if got := ChiSquareSurvival(3.841458820694124, 1); !almostEqual(got, 0.05, 1e-9) {
		t.Errorf("ChiSquareSurvival = %v, want 0.05", got)
	}
	if got := ChiSquareSurvival(-5, 2); got != 1 {
		t.Errorf("ChiSquareSurvival(-5) = %v, want 1", got)
	}
}

// studentTCDF is P(T <= t) under Student's t with nu degrees of
// freedom, from the two-sided survival function.
func studentTCDF(t, nu float64) float64 {
	half := StudentTSurvivalTwoSided(t, nu) / 2
	if t > 0 {
		return 1 - half
	}
	return half
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// t critical values: t(0.975, df=10) = 2.228, t(0.975, df=30) = 2.042.
	cases := []struct{ t, nu, want float64 }{
		{0, 5, 0.5},
		{2.2281388519649385, 10, 0.975},
		{-2.2281388519649385, 10, 0.025},
		{2.0422724563012373, 30, 0.975},
	}
	for _, c := range cases {
		got := studentTCDF(c.t, c.nu)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("CDF(%v, nu=%v) = %v, want %v", c.t, c.nu, got, c.want)
		}
	}
	if got := StudentTSurvivalTwoSided(2.2281388519649385, 10); !almostEqual(got, 0.05, 1e-9) {
		t.Errorf("two-sided p = %v, want 0.05", got)
	}
	if !math.IsNaN(StudentTSurvivalTwoSided(1, 0)) {
		t.Error("StudentTSurvivalTwoSided with nu=0 should be NaN")
	}
}

// TestNormalCDF checks the incomplete gamma function against the
// standard normal CDF: P(|Z| <= x) = 1 - Q(1/2, x²/2).
func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		central := 1 - GammaIncQ(0.5, c.x*c.x/2)
		got := 0.5 + math.Copysign(central, c.x)/2
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFMonotonicity(t *testing.T) {
	err := quick.Check(func(x1, x2 int16, dfi uint8) bool {
		a := float64(x1) / 100
		b := float64(x2) / 100
		if a > b {
			a, b = b, a
		}
		df := 1 + float64(dfi%30)
		return studentTCDF(a, df) <= studentTCDF(b, df)+1e-12
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
