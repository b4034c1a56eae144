package features

// Golden equivalence and allocation-regression tests for the inline
// FNV-1a fast path. referenceVectorize is a verbatim copy of the
// pre-optimisation implementation (string-built features hashed with
// hash/fnv); both Hasher.Vectorize and Featurizer.Vectorize must match
// it bit for bit.

import (
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"harassrepro/internal/testutil"
)

// referenceVectorize is the legacy Hasher.Vectorize: per-feature string
// concatenation fed to a heap-allocated fnv.New64a hasher.
func referenceVectorize(h *Hasher, tokens []string) Vector {
	bucketAndSign := func(feature string) (uint32, float64) {
		hash := fnv.New64a()
		hash.Write([]byte(feature))
		sum := hash.Sum64()
		return uint32((sum >> 1) % uint64(h.cfg.Buckets)), 1
	}
	counts := map[uint32]float64{}
	add := func(feature string) {
		bucket, sign := bucketAndSign(feature)
		counts[bucket] += sign
	}
	for _, t := range tokens {
		add("u\x00" + t)
	}
	if h.cfg.Bigrams {
		for i := 0; i+1 < len(tokens); i++ {
			add("b\x00" + tokens[i] + "\x00" + tokens[i+1])
		}
	}
	idx := make([]uint32, 0, len(counts))
	for i, v := range counts {
		if v != 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	vals := make([]float64, len(idx))
	for i, ix := range idx {
		vals[i] = counts[ix]
	}
	return Vector{Indices: idx, Values: vals}
}

var goldenTokenSets = [][]string{
	nil,
	{},
	{"a"},
	{"we", "should", "report", "him"},
	{"dox", "her", "address", "now", "dox", "her"},
	{"tok\x00with", "nul", "bytes\x00"},
	{"ünïcode", "日本語", "tokens"},
	{"", "", "empty", ""},
	{"x", "y", "x", "y", "x", "y", "x", "y"},
}

func hasherVariants() []*Hasher {
	return []*Hasher{
		NewHasher(HasherConfig{Buckets: 1 << 16}),
		NewHasher(HasherConfig{Buckets: 1 << 16, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 64, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 1000, Bigrams: true}), // not a power of two: the modulo path
	}
}

func TestVectorizeMatchesReference(t *testing.T) {
	for _, h := range hasherVariants() {
		f := h.NewFeaturizer()
		for _, toks := range goldenTokenSets {
			want := referenceVectorize(h, toks)
			if got := h.Vectorize(toks); !reflect.DeepEqual(got, want) {
				t.Errorf("Vectorize(%q, buckets=%d) = %+v, want %+v", toks, h.Buckets(), got, want)
			}
			got := f.Vectorize(toks)
			if !equalVec(got, want) {
				t.Errorf("Featurizer.Vectorize(%q, buckets=%d) = %+v, want %+v", toks, h.Buckets(), got, want)
			}
		}
	}
}

func TestFeaturizerMatchesReferenceQuick(t *testing.T) {
	h := NewHasher(HasherConfig{Buckets: 128, Bigrams: true})
	f := h.NewFeaturizer()
	err := quick.Check(func(tokens []string) bool {
		return equalVec(f.Vectorize(tokens), referenceVectorize(h, tokens))
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFeaturizerScratchReuse documents the aliasing contract: the next
// Vectorize call invalidates the previous result.
func TestFeaturizerScratchReuse(t *testing.T) {
	h := NewHasher(HasherConfig{Buckets: 1 << 16, Bigrams: true})
	f := h.NewFeaturizer()
	v1 := f.Vectorize([]string{"we", "report", "him"})
	snapshot := Vector{
		Indices: append([]uint32(nil), v1.Indices...),
		Values:  append([]float64(nil), v1.Values...),
	}
	f.Vectorize([]string{"completely", "different", "tokens", "here"})
	want := referenceVectorize(h, []string{"we", "report", "him"})
	if !equalVec(snapshot, want) {
		t.Fatal("snapshot of first vector is wrong — Vectorize output incorrect before reuse")
	}
}

// TestFeaturizerZeroAllocs is the allocation-regression gate for the
// featurization fast path: steady-state vectorization must not allocate.
func TestFeaturizerZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := NewHasher(HasherConfig{Bigrams: true})
	f := h.NewFeaturizer()
	tokens := []string{"we", "need", "to", "mass", "-", "report", "his", "twitter", "and", "youtube", ",", "spread", "the", "word"}
	f.Vectorize(tokens) // warm the scratch
	if n := testing.AllocsPerRun(100, func() {
		f.Vectorize(tokens)
	}); n != 0 {
		t.Errorf("Featurizer.Vectorize allocates %v per op, want 0", n)
	}
}

// TestHasherVectorizeAllocs pins the wrapper's cost: the two owned
// output slices, never a fresh accumulator table per call.
func TestHasherVectorizeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := NewHasher(HasherConfig{Bigrams: true})
	tokens := []string{"we", "need", "to", "mass", "-", "report", "his", "twitter"}
	h.Vectorize(tokens) // warm the pool
	if n := testing.AllocsPerRun(100, func() {
		h.Vectorize(tokens)
	}); n > 2 {
		t.Errorf("Hasher.Vectorize allocates %v per op, want at most 2", n)
	}
}

// TestHasherVectorizeConcurrent: the pooled wrapper is shared by
// ablation and explain callers, so concurrent calls must each get
// their own scratch and an owned result.
func TestHasherVectorizeConcurrent(t *testing.T) {
	h := NewHasher(HasherConfig{Buckets: 1 << 10, Bigrams: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				toks := goldenTokenSets[(g+i)%len(goldenTokenSets)]
				if got, want := h.Vectorize(toks), referenceVectorize(h, toks); !equalVec(got, want) {
					t.Errorf("Vectorize(%q) = %+v, want %+v", toks, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func equalVec(a, b Vector) bool {
	if len(a.Indices) != len(b.Indices) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] || a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func BenchmarkFeaturizerVectorize(b *testing.B) {
	h := NewHasher(HasherConfig{Bigrams: true})
	f := h.NewFeaturizer()
	toks := make([]string, 128)
	for i := range toks {
		toks[i] = "token" + string(rune('a'+i%26))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Vectorize(toks)
	}
}
