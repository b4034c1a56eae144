// Package features converts token sequences into sparse feature vectors
// for the filtering classifiers: hashed unigram/bigram counts. Feature
// hashing keeps the model memory footprint fixed regardless of
// vocabulary size, which is what lets the classifiers score hundreds of
// thousands of documents per pipeline run — the same "small memory
// footprint that can process large amounts of data" constraint the
// paper faced (§5.2).
package features

import "sync"

// Vector is a sparse feature vector: parallel index/value slices sorted by
// index with no duplicate indices.
type Vector struct {
	Indices []uint32
	Values  []float64
}

// Dot returns the dot product of the vector with a dense weight slice.
// Indices beyond len(weights) are ignored.
func (v Vector) Dot(weights []float64) float64 {
	sum := 0.0
	n := uint32(len(weights))
	for i, idx := range v.Indices {
		if idx < n {
			sum += v.Values[i] * weights[idx]
		}
	}
	return sum
}

// HasherConfig configures a feature Hasher.
type HasherConfig struct {
	// Buckets is the hashed feature space size. Defaults to 1<<18.
	Buckets uint32
	// Bigrams includes token bigrams in addition to unigrams.
	Bigrams bool
}

func (c *HasherConfig) fillDefaults() {
	if c.Buckets == 0 {
		c.Buckets = 1 << 18
	}
}

// Hasher maps token sequences to sparse hashed count vectors.
type Hasher struct {
	cfg HasherConfig
	// mask is Buckets-1 when Buckets is a power of two above 1 (every
	// feature space the pipeline builds), else 0: bucket then masks
	// instead of dividing.
	mask uint32
	// featurizers pools scratch for Vectorize; safe for concurrent use.
	featurizers sync.Pool
}

// NewHasher returns a Hasher with the given configuration.
func NewHasher(cfg HasherConfig) *Hasher {
	cfg.fillDefaults()
	h := &Hasher{cfg: cfg}
	if b := cfg.Buckets; b > 1 && b&(b-1) == 0 {
		h.mask = b - 1
	}
	return h
}

// Vectorize maps tokens to a sparse vector of hashed feature counts.
// It is the owning convenience wrapper over a pooled Featurizer: the
// returned vector has fresh storage and the call is safe for
// concurrent use. Scoring hot paths hold their own Featurizer.
func (h *Hasher) Vectorize(tokens []string) Vector {
	f, _ := h.featurizers.Get().(*Featurizer)
	if f == nil {
		f = h.NewFeaturizer()
	}
	v := f.Vectorize(tokens)
	out := Vector{Indices: make([]uint32, len(v.Indices)), Values: make([]float64, len(v.Values))}
	copy(out.Indices, v.Indices)
	copy(out.Values, v.Values)
	h.featurizers.Put(f)
	return out
}
