// Package randx provides deterministic, splittable pseudo-random sources
// and sampling utilities used throughout the reproduction.
//
// Every stochastic component in the library takes an explicit *randx.Source
// so that an entire end-to-end reproduction is bit-reproducible for a given
// root seed. Sources are cheap to create and may be split into independent
// child streams keyed by a label, so that adding randomness consumption in
// one subsystem does not perturb another.
package randx

import (
	"math"
	"sort"
)

// FNV-1a, inlined so that Split/SplitN on scoring hot paths do not
// allocate a hash.Hash64 per call. The constants and byte order match
// hash/fnv exactly: child streams derived before and after the inlining
// are bit-identical.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Source is a deterministic pseudo-random source based on the SplitMix64
// generator. It is intentionally minimal: the reproduction needs speed and
// determinism, not cryptographic strength.
//
// A Source is not safe for concurrent use; Split off independent child
// sources for concurrent consumers.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child source from s keyed by label.
// Splitting does not advance s, so the child stream depends only on the
// parent seed and the label.
func (s *Source) Split(label string) *Source {
	return &Source{state: s.splitState(label)}
}

// SplitN derives an independent child source keyed by label and an index,
// for per-item streams (for example one stream per generated document).
func (s *Source) SplitN(label string, n int) *Source {
	src := s.SplitNVal(label, n)
	return &src
}

// SplitNVal is SplitN returning the child by value, for hot paths that
// derive one short-lived stream per document and must not allocate.
func (s *Source) SplitNVal(label string, n int) Source {
	h := fnvString(fnvOffset64, label)
	v := uint64(n)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return Source{state: s.state ^ (h | 1)}
}

func (s *Source) splitState(label string) uint64 {
	return s.state ^ (fnvString(fnvOffset64, label) | 1)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias is negligible for the n values used (< 2^32).
	return int(s.Uint64() % uint64(n))
}

// IntRange returns a uniformly distributed int in [lo, hi]. It panics if
// hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("randx: IntRange called with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (s *Source) NormFloat64() float64 {
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// LogNormal returns a log-normally distributed float64 whose underlying
// normal has the given mu and sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Pick returns a uniformly chosen element of items. It panics if items is
// empty.
func Pick[T any](s *Source, items []T) T {
	return items[s.Intn(len(items))]
}

// Shuffle permutes items in place using the Fisher–Yates algorithm.
func Shuffle[T any](s *Source, items []T) {
	for i := len(items) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		items[i], items[j] = items[j], items[i]
	}
}

// Weighted samples an index from the (unnormalised, non-negative) weights.
// It panics if weights is empty or sums to zero.
type Weighted struct {
	cum []float64
}

// NewWeighted builds a weighted sampler over the given weights.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("randx: NewWeighted with empty weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("randx: NewWeighted with negative or NaN weight")
		}
		total += w
		cum[i] = total
	}
	if total == 0 {
		panic("randx: NewWeighted with zero total weight")
	}
	return &Weighted{cum: cum}
}

// Sample draws one index proportionally to the configured weights.
func (w *Weighted) Sample(s *Source) int {
	total := w.cum[len(w.cum)-1]
	x := s.Float64() * total
	return sort.SearchFloat64s(w.cum, x+math.SmallestNonzeroFloat64)
}
