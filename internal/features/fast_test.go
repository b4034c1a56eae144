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
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"harassrepro/internal/randx"
	"harassrepro/internal/testutil"
	"harassrepro/internal/tokenize"
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
		// Occupancy-bitmap edges: one bucket, one bucket short of and
		// one past a 64-bit word, exactly one summary word (64 words)
		// and one bucket past it, and the default feature space.
		NewHasher(HasherConfig{Buckets: 1, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 63, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 65, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 4096, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 4097, Bigrams: true}),
		NewHasher(HasherConfig{Buckets: 1 << 18, Bigrams: true}),
	}
}

// distinctTokens returns n different tokens: with bigrams, 2n-1
// distinct n-grams, spread over many occupancy-bitmap words.
func distinctTokens(n int) []string {
	toks := make([]string, n)
	for i := range toks {
		toks[i] = "t" + strconv.Itoa(i)
	}
	return toks
}

// owned copies a Featurizer's aliased result into fresh slices, as
// Hasher.Vectorize does, so reflect.DeepEqual can compare it with
// referenceVectorize (which never returns nil slices).
func owned(v Vector) Vector {
	return Vector{Indices: append([]uint32{}, v.Indices...), Values: append([]float64{}, v.Values...)}
}

// checkVectorize compares both vectorizers with the reference on toks.
func checkVectorize(t *testing.T, h *Hasher, f *Featurizer, toks []string) {
	t.Helper()
	want := referenceVectorize(h, toks)
	if got := h.Vectorize(toks); !reflect.DeepEqual(got, want) {
		t.Errorf("Hasher.Vectorize(%d tokens, buckets=%d) = %+v, want %+v", len(toks), h.cfg.Buckets, got, want)
	}
	if got := owned(f.Vectorize(toks)); !reflect.DeepEqual(got, want) {
		t.Errorf("Featurizer.Vectorize(%d tokens, buckets=%d) = %+v, want %+v", len(toks), h.cfg.Buckets, got, want)
	}
}

// TestFeaturizerGatherOrder drives the ordered gather through hundreds
// of distinct n-grams and through one Featurizer reused for a long, a
// short, an empty and a long document: a bit left set by an earlier
// document would add a bucket to a later one.
func TestFeaturizerGatherOrder(t *testing.T) {
	long, short := distinctTokens(600), []string{"we", "report", "him"}
	for _, h := range hasherVariants() {
		f := h.NewFeaturizer()
		for _, toks := range [][]string{long, short, nil, long, distinctTokens(300)} {
			checkVectorize(t, h, f, toks)
		}
	}
}

// TestFeaturizerCountsReset reuses one Featurizer on documents whose
// n-grams repeat (counts above 1) in the order long, short, empty,
// long: with dense counts a missed reset does not drop or add a bucket
// but leaves a wrong count, which only a value comparison sees.
func TestFeaturizerCountsReset(t *testing.T) {
	long := append(distinctTokens(200), distinctTokens(200)...)
	for i := 0; i < 50; i++ {
		long = append(long, "dox", "her")
	}
	short := []string{"dox", "her", "dox", "her", "dox"}
	for _, h := range hasherVariants() {
		f := h.NewFeaturizer()
		for _, toks := range [][]string{long, short, nil, long, short} {
			checkVectorize(t, h, f, toks)
		}
	}
}

// TestFeaturizerDirtyScratch leaves counts and occupancy bits behind,
// as a Vectorize abandoned midway would, and checks that the next call
// still gives the reference vector.
func TestFeaturizerDirtyScratch(t *testing.T) {
	for _, h := range hasherVariants() {
		f := h.NewFeaturizer()
		f.Vectorize([]string{"we", "report", "him"})
		for _, b := range []uint32{0, h.cfg.Buckets / 2, h.cfg.Buckets - 1, h.cfg.Buckets - 1} {
			f.add(b)
		}
		checkVectorize(t, h, f, []string{"report", "him", "report"})
		f.add(h.cfg.Buckets - 1)
		checkVectorize(t, h, f, nil)
	}
}

// TestFeaturizerEdgeBuckets gathers the first and the last bucket of
// the feature space, alone and together, using tokens found by search.
func TestFeaturizerEdgeBuckets(t *testing.T) {
	for _, n := range []uint32{64, 65, 1000, 4097} {
		h := NewHasher(HasherConfig{Buckets: n, Bigrams: true})
		var first, last string
		for i := 0; first == "" || last == ""; i++ {
			tok := "e" + strconv.Itoa(i)
			switch referenceVectorize(h, []string{tok}).Indices[0] {
			case 0:
				first = tok
			case n - 1:
				last = tok
			}
		}
		f := h.NewFeaturizer()
		for _, toks := range [][]string{{first}, {last}, {last, first}, {first, "x", last, first}, {last}} {
			checkVectorize(t, h, f, toks)
		}
	}
}

// FuzzFeaturizerMatchesReference is the differential fuzz target for
// the featurizer: the space-separated tokens of the input, followed by
// up to 599 distinct generated ones (so long documents need
// no long input, which the minimizer handles in quadratic time), hashed
// into a feature space of 1 to 1<<18 buckets drawn from the input, must
// give referenceVectorize's vector from Hasher.Vectorize and from a
// Featurizer reused across inputs.
func FuzzFeaturizerMatchesReference(f *testing.F) {
	f.Add(uint32(1<<18-1), uint16(0), "we need to mass-report his twitter")
	f.Add(uint32(0), uint16(0), "a b a")
	f.Add(uint32(63), uint16(0), "")
	f.Add(uint32(4096), uint16(300), "dox her address now")
	f.Add(uint32(1000), uint16(129), "tok\x00with nul  bytes ünïcode 日本語")
	cache := map[HasherConfig]*Featurizer{}
	f.Fuzz(func(t *testing.T, n uint32, distinct uint16, text string) {
		cfg := HasherConfig{Buckets: 1 + (n>>1)%(1<<18), Bigrams: n&1 == 0}
		feat := cache[cfg]
		if feat == nil {
			if len(cache) >= 16 { // bound the memory of a long run
				clear(cache)
			}
			feat = NewHasher(cfg).NewFeaturizer()
			cache[cfg] = feat
		}
		toks := append(strings.Split(text, " "), distinctTokens(int(distinct%600))...)
		checkVectorize(t, feat.h, feat, toks)
	})
}

func TestVectorizeMatchesReference(t *testing.T) {
	for _, h := range hasherVariants() {
		f := h.NewFeaturizer()
		for _, toks := range goldenTokenSets {
			want := referenceVectorize(h, toks)
			if got := h.Vectorize(toks); !reflect.DeepEqual(got, want) {
				t.Errorf("Vectorize(%q, buckets=%d) = %+v, want %+v", toks, h.cfg.Buckets, got, want)
			}
			got := f.Vectorize(toks)
			if !equalVec(got, want) {
				t.Errorf("Featurizer.Vectorize(%q, buckets=%d) = %+v, want %+v", toks, h.cfg.Buckets, got, want)
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

// TestVectorizeSpansMatchesReference pins VectorizeSpans to the legacy
// span composition — tokenize.Spans with the random-no-overlap strategy,
// spans merged, then Hasher.Vectorize — on one reused Featurizer, at
// lengths below, at and above the document's, and requires both to
// leave the rng in the same state.
func TestVectorizeSpansMatchesReference(t *testing.T) {
	h := NewHasher(HasherConfig{Buckets: 1 << 12, Bigrams: true})
	f := h.NewFeaturizer()
	toks := distinctTokens(300)
	for _, maxLen := range []int{1, 7, 128, 299, 300, 512} {
		got, want := randx.New(3).Split("spans"), randx.New(3).Split("spans")
		var merged []string
		for _, s := range tokenize.Spans(toks, maxLen, 2, tokenize.SpanRandomNoOverlap, want) {
			merged = append(merged, s...)
		}
		if v := f.VectorizeSpans(toks, maxLen, got); !equalVec(v, h.Vectorize(merged)) {
			t.Errorf("maxLen %d: VectorizeSpans differs from the legacy composition", maxLen)
		}
		if got.Uint64() != want.Uint64() {
			t.Errorf("maxLen %d: rng states diverge", maxLen)
		}
	}
}

// TestVectorizeSpansZeroAllocs: span sampling and merging reuse the
// Featurizer's scratch, so a steady-state long document allocates
// nothing.
func TestVectorizeSpansZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := NewHasher(HasherConfig{Bigrams: true}).NewFeaturizer()
	toks := distinctTokens(600)
	rng := new(randx.Source)
	run := func() {
		*rng = *randx.New(5)
		f.VectorizeSpans(toks, 128, rng)
	}
	run() // warm the scratch
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("Featurizer.VectorizeSpans allocates %v per op, want 0", n)
	}
}

// TestHasherVectorizeAllocs pins the wrapper's cost: the two owned
// output slices, never a fresh count array per call.
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
