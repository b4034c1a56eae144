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
// Featurizer goes further and replaces the per-document Go map with a
// reusable open-addressing accumulator: inserts are a couple of array
// probes, and a touched-slot list makes reset proportional to the
// number of distinct features in the document, not the table capacity
// (iterating a Go map visits every bucket group, which profiling showed
// was the single largest scoring cost). The output must list buckets in
// ascending order, because float addition is not associative and Dot
// sums in index order. A two-level occupancy bitmap over the feature
// space yields that order without a sort (which profiling showed was a
// third of scoring): one bit per bucket, one summary bit per nonzero
// word, walked in ascending order.
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

// accumEmpty marks a free accumulator slot. Buckets is at most
// 1<<32 - 1, so a real bucket id can never equal it.
const accumEmpty = ^uint32(0)

// Featurizer maps token sequences to sparse hashed count vectors using
// reusable scratch space: an open-addressing count accumulator, an
// occupancy bitmap over the buckets (Buckets/8 bytes) and one
// index/value pair are recycled across documents.
//
// Not safe for concurrent use; pool one Featurizer per worker. The
// returned Vector aliases the scratch and is only valid until the next
// Vectorize call — consume it (Dot, model scoring) before reuse.
type Featurizer struct {
	h       *Hasher
	keys    []uint32 // probe table: bucket id or accumEmpty
	vals    []float64
	mask    uint32
	shift   uint32   // 32 - log2(len(keys)): slot(b) is the top bits of b*φ
	touched []int32  // occupied slots, for reset
	occ     []uint64 // bit b%64 of word b/64: bucket b is in the table
	occSum  []uint64 // bit w%64 of word w/64: occ[w] is nonzero
	idx     []uint32
	out     []float64
}

// NewFeaturizer returns a Featurizer sharing the hasher's configuration.
func (h *Hasher) NewFeaturizer() *Featurizer {
	words := (uint64(h.cfg.Buckets) + 63) / 64
	f := &Featurizer{h: h, occ: make([]uint64, words), occSum: make([]uint64, (words+63)/64)}
	f.resize(512)
	return f
}

func (f *Featurizer) resize(n int) {
	f.keys = make([]uint32, n)
	for i := range f.keys {
		f.keys[i] = accumEmpty
	}
	f.vals = make([]float64, n)
	f.mask = uint32(n - 1)
	f.shift = uint32(32 - bits.TrailingZeros(uint(n)))
}

// rehash doubles the table and reinserts the live entries.
func (f *Featurizer) rehash() {
	oldKeys, oldVals, oldTouched := f.keys, f.vals, f.touched
	f.resize(2 * len(oldKeys))
	f.touched = f.touched[:0]
	for _, slot := range oldTouched {
		f.insert(oldKeys[slot], oldVals[slot])
	}
}

// insert adds delta to bucket's count without a load-factor check.
// Fibonacci hashing (the top bits of bucket times 2^32/φ) spreads bucket
// ids across the probe table with one multiply.
func (f *Featurizer) insert(bucket uint32, delta float64) {
	slot := (bucket * 0x9E3779B1) >> f.shift
	for {
		switch f.keys[slot] {
		case bucket:
			f.vals[slot] += delta
			return
		case accumEmpty:
			f.keys[slot] = bucket
			f.vals[slot] = delta
			f.touched = append(f.touched, int32(slot))
			f.occ[bucket>>6] |= 1 << (bucket & 63)
			f.occSum[bucket>>12] |= 1 << (bucket >> 6 & 63)
			return
		}
		slot = (slot + 1) & f.mask
	}
}

// add accumulates one n-gram occurrence, growing the table when the
// load factor would exceed 1/2.
func (f *Featurizer) add(bucket uint32) {
	if 2*(len(f.touched)+1) > len(f.keys) {
		f.rehash()
	}
	f.insert(bucket, 1)
}

// Vectorize maps tokens to a sparse vector of hashed feature counts.
func (f *Featurizer) Vectorize(tokens []string) Vector {
	// Every set bit belongs to a touched bucket, so zeroing the touched
	// buckets' whole words clears both bitmaps.
	for _, slot := range f.touched {
		b := f.keys[slot]
		f.occ[b>>6], f.occSum[b>>12] = 0, 0
		f.keys[slot] = accumEmpty
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

	// Walk the occupied buckets in ascending order and probe each one's
	// count as insert does.
	f.idx, f.out = f.idx[:0], f.out[:0]
	for s, sum := range f.occSum {
		for ; sum != 0; sum &= sum - 1 {
			w := s<<6 | bits.TrailingZeros64(sum)
			for word := f.occ[w]; word != 0; word &= word - 1 {
				bucket := uint32(w<<6 | bits.TrailingZeros64(word))
				slot := (bucket * 0x9E3779B1) >> f.shift
				for f.keys[slot] != bucket {
					slot = (slot + 1) & f.mask
				}
				f.idx = append(f.idx, bucket)
				f.out = append(f.out, f.vals[slot])
			}
		}
	}
	return Vector{Indices: f.idx, Values: f.out}
}
