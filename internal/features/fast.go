package features

// The zero-allocation featurization fast path. Hasher.Vectorize
// historically built one feature string per n-gram ("u\x00"+tok,
// "b\x00"+a+"\x00"+b), fed it to a heap-allocated hash/fnv hasher, and
// materialised a fresh map plus two fresh slices per document. At
// paper scale (hundreds of millions of scored documents, §5.2's "small
// memory footprint" constraint) that is pure GC pressure. FNV-1a is a
// byte-serial hash, so hashing the prefix, separator and token bytes in
// sequence produces exactly the sum of hashing their concatenation —
// no feature string needs to exist.
//
// Featurizer goes further and counts n-grams in a dense per-bucket
// array (Buckets×4 bytes, half of one model's weight vector): an
// increment is one array write with no probing, and a touched-bucket
// list makes reset proportional to the number of distinct features in
// the document, not the feature space (iterating a Go map visits every
// bucket group, which profiling showed was the single largest scoring
// cost). The output must list buckets in ascending order, because
// float addition is not associative and Dot sums in index order. A
// two-level occupancy bitmap over the feature space yields that order
// without a sort (which profiling showed was a third of scoring): one
// bit per bucket, one summary bit per nonzero word, walked in ascending
// order.
//
// Golden tests assert bit-identical vectors against the legacy
// string-building implementation.

import "math/bits"

// FNV-1a constants, matching hash/fnv.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvAddByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// Hashing each n-gram starts from the hash of its marker prefix
// ("u\x00" for unigrams, "b\x00" for bigrams), precomputed once.
var (
	unigramSeed = fnvAddByte(fnvAddByte(fnvOffset64, 'u'), 0)
	bigramSeed  = fnvAddByte(fnvAddByte(fnvOffset64, 'b'), 0)
)

// bucket maps a finished FNV-1a sum to its feature bucket. The lowest
// bit is dropped first: saved models were trained on that assignment.
// A power-of-two feature space masks, which gives the modulo's result
// without a 64-bit division per n-gram.
func (h *Hasher) bucket(sum uint64) uint32 {
	if h.mask != 0 {
		return uint32(sum>>1) & h.mask
	}
	return uint32((sum >> 1) % uint64(h.cfg.Buckets))
}

// Featurizer maps token sequences to sparse hashed count vectors using
// reusable scratch space: a dense count per bucket (Buckets×4 bytes),
// an occupancy bitmap over the buckets (Buckets/8 bytes) and one
// index/value pair are recycled across documents.
//
// Not safe for concurrent use; pool one Featurizer per worker. The
// returned Vector aliases the scratch and is only valid until the next
// Vectorize call — consume it (Dot, model scoring) before reuse.
type Featurizer struct {
	h       *Hasher
	cnt     []uint32 // n-gram count per bucket, nonzero only for touched ones
	touched []uint32 // buckets counted since the last reset
	occ     []uint64 // bit b%64 of word b/64: bucket b is touched
	occSum  []uint64 // bit w%64 of word w/64: occ[w] is nonzero
	idx     []uint32
	out     []float64
}

// NewFeaturizer returns a Featurizer sharing the hasher's configuration.
func (h *Hasher) NewFeaturizer() *Featurizer {
	words := (uint64(h.cfg.Buckets) + 63) / 64
	return &Featurizer{
		h:      h,
		cnt:    make([]uint32, h.cfg.Buckets),
		occ:    make([]uint64, words),
		occSum: make([]uint64, (words+63)/64),
	}
}

// add counts one n-gram occurrence in bucket.
func (f *Featurizer) add(bucket uint32) {
	if f.cnt[bucket] == 0 {
		f.touched = append(f.touched, bucket)
		f.occ[bucket>>6] |= 1 << (bucket & 63)
		f.occSum[bucket>>12] |= 1 << (bucket >> 6 & 63)
	}
	f.cnt[bucket]++
}

// Vectorize maps tokens to a sparse vector of hashed feature counts.
func (f *Featurizer) Vectorize(tokens []string) Vector {
	// Every set bit belongs to a touched bucket, so zeroing the touched
	// buckets' counts and whole words clears all the scratch. Being the
	// only reset, it also clears whatever a call abandoned midway left.
	for _, b := range f.touched {
		f.cnt[b] = 0
		f.occ[b>>6], f.occSum[b>>12] = 0, 0
	}
	f.touched = f.touched[:0]

	// One pass over each token's bytes carries three sums: its unigram,
	// the bigram it ends (continuing the previous token's
	// "b\x00"+prev+"\x00" prefix) and the prefix of the bigram it starts.
	// Counts are whole numbers, so the order features are added in
	// cannot change a value.
	h := f.h
	var prefix uint64
	for i, t := range tokens {
		uni, end, next := unigramSeed, prefix, bigramSeed
		for j := 0; j < len(t); j++ {
			c := uint64(t[j])
			uni = (uni ^ c) * fnvPrime64
			end = (end ^ c) * fnvPrime64
			next = (next ^ c) * fnvPrime64
		}
		f.add(h.bucket(uni))
		if h.cfg.Bigrams && i > 0 {
			f.add(h.bucket(end))
		}
		prefix = fnvAddByte(next, 0)
	}

	// Walk the occupied buckets in ascending order. A count is far below
	// 2^53, so its float64 is exactly the sum of that many 1.0s.
	f.idx, f.out = f.idx[:0], f.out[:0]
	for s, sum := range f.occSum {
		for ; sum != 0; sum &= sum - 1 {
			w := s<<6 | bits.TrailingZeros64(sum)
			for word := f.occ[w]; word != 0; word &= word - 1 {
				bucket := uint32(w<<6 | bits.TrailingZeros64(word))
				f.idx = append(f.idx, bucket)
				f.out = append(f.out, float64(f.cnt[bucket]))
			}
		}
	}
	return Vector{Indices: f.idx, Values: f.out}
}
