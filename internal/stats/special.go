// Package stats implements the statistical machinery the paper's analyses
// rely on: descriptive statistics, chi-square tests of independence,
// two-sample t-tests (used on log thread sizes), the Benjamini–Hochberg
// procedure, Cohen's kappa inter-annotator agreement, and empirical
// CDFs.
//
// The special functions (regularised incomplete gamma and beta) are
// implemented from the standard series/continued-fraction expansions so the
// package needs nothing beyond the Go standard library.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned by tests that need more observations than
// were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

const (
	maxIterations = 500
	epsilon       = 3e-14
)

// GammaIncQ returns the regularised upper incomplete gamma function
// Q(a, x) = Γ(a, x) / Γ(a), for a > 0, x >= 0.
func GammaIncQ(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its series representation (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIterations; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsilon {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by its continued fraction
// representation (x >= a+1), using the modified Lentz method.
func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIterations; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// BetaInc returns the regularised incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1].
func BetaInc(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0 || x < 0 || x > 1:
		return math.NaN()
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

// betaContinuedFraction evaluates the continued fraction for BetaInc using
// the modified Lentz method.
func betaContinuedFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIterations; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			break
		}
	}
	return h
}

// ChiSquareSurvival returns P(X > x) for a chi-square distribution with k
// degrees of freedom, i.e. the upper-tail p-value for statistic x.
func ChiSquareSurvival(x float64, k float64) float64 {
	if x < 0 {
		return 1
	}
	return GammaIncQ(k/2, x/2)
}

// StudentTSurvivalTwoSided returns the two-sided p-value for |T| >= |t|
// under Student's t with nu degrees of freedom.
func StudentTSurvivalTwoSided(t, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	return BetaInc(nu/2, 0.5, nu/(nu+t*t))
}
