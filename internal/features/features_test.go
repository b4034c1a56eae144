package features

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestVectorizeCountsAndDeterminism(t *testing.T) {
	h := NewHasher(HasherConfig{Buckets: 1 << 16})
	v1 := h.Vectorize([]string{"a", "b", "a"})
	v2 := h.Vectorize([]string{"a", "b", "a"})
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("hashing is not deterministic")
	}
	// Two distinct tokens, one repeated: expect 2 buckets (absent an
	// unlucky collision in 65536 buckets) with counts {2, 1}.
	if len(v1.Indices) != 2 {
		t.Fatalf("NNZ = %d, want 2", len(v1.Indices))
	}
	total := 0.0
	for _, x := range v1.Values {
		total += x
	}
	if total != 3 {
		t.Fatalf("total count = %v, want 3", total)
	}
}

func TestVectorizeEmpty(t *testing.T) {
	h := NewHasher(HasherConfig{})
	v := h.Vectorize(nil)
	if len(v.Indices) != 0 {
		t.Fatalf("empty input NNZ = %d", len(v.Indices))
	}
}

func TestVectorizeBigrams(t *testing.T) {
	uni := NewHasher(HasherConfig{Buckets: 1 << 16})
	bi := NewHasher(HasherConfig{Buckets: 1 << 16, Bigrams: true})
	toks := []string{"we", "should", "report", "him"}
	vu := uni.Vectorize(toks)
	vb := bi.Vectorize(toks)
	sum := func(v Vector) float64 {
		s := 0.0
		for _, x := range v.Values {
			s += x
		}
		return s
	}
	if sum(vu) != 4 {
		t.Fatalf("unigram mass = %v", sum(vu))
	}
	if sum(vb) != 7 { // 4 unigrams + 3 bigrams
		t.Fatalf("unigram+bigram mass = %v", sum(vb))
	}
}

func TestVectorIndicesSortedUnique(t *testing.T) {
	h := NewHasher(HasherConfig{Buckets: 64}) // force collisions
	err := quick.Check(func(words []string) bool {
		v := h.Vectorize(words)
		for i := 1; i < len(v.Indices); i++ {
			if v.Indices[i] <= v.Indices[i-1] {
				return false
			}
		}
		for _, idx := range v.Indices {
			if idx >= 64 {
				return false
			}
		}
		return len(v.Indices) == len(v.Values)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	v := Vector{Indices: []uint32{1, 3}, Values: []float64{2, -1}}
	w := []float64{10, 20, 30, 40}
	if got := v.Dot(w); got != 2*20-1*40 {
		t.Fatalf("Dot = %v", got)
	}
	// Out-of-range indices are ignored.
	v2 := Vector{Indices: []uint32{1, 100}, Values: []float64{1, 5}}
	if got := v2.Dot(w); got != 20 {
		t.Fatalf("Dot with OOR index = %v", got)
	}
}

func BenchmarkVectorize(b *testing.B) {
	h := NewHasher(HasherConfig{Bigrams: true})
	toks := make([]string, 128)
	for i := range toks {
		toks[i] = "token" + string(rune('a'+i%26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Vectorize(toks)
	}
}
