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
// probes, and a touched-slot list makes both reset and output gathering
// proportional to the number of distinct features in the document, not
// the table capacity (iterating a Go map visits every bucket group,
// which profiling showed was the single largest scoring cost).
//
// Golden tests assert bit-identical vectors against the legacy
// string-building implementation.

import "slices"

// FNV-1a constants, matching hash/fnv.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

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
func (h *Hasher) bucket(sum uint64) uint32 {
	return uint32((sum >> 1) % uint64(h.cfg.Buckets))
}

// accumEmpty marks a free accumulator slot. Buckets is at most
// 1<<32 - 1, so a real bucket id can never equal it.
const accumEmpty = ^uint32(0)

// mix32 is a 32-bit finalizer (Prospector constants) spreading bucket
// ids across the probe table.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Featurizer maps token sequences to sparse hashed count vectors using
// reusable scratch space: an open-addressing count accumulator and one
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
	touched []int32 // occupied slots, for reset and gathering
	idx     []uint32
	out     []float64
}

// NewFeaturizer returns a Featurizer sharing the hasher's configuration.
func (h *Hasher) NewFeaturizer() *Featurizer {
	f := &Featurizer{h: h}
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
func (f *Featurizer) insert(bucket uint32, delta float64) {
	slot := mix32(bucket) & f.mask
	for {
		switch f.keys[slot] {
		case bucket:
			f.vals[slot] += delta
			return
		case accumEmpty:
			f.keys[slot] = bucket
			f.vals[slot] = delta
			f.touched = append(f.touched, int32(slot))
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

// count returns the accumulated count for a bucket known to be present.
func (f *Featurizer) count(bucket uint32) float64 {
	slot := mix32(bucket) & f.mask
	for f.keys[slot] != bucket {
		slot = (slot + 1) & f.mask
	}
	return f.vals[slot]
}

// Vectorize maps tokens to a sparse vector of hashed feature counts.
func (f *Featurizer) Vectorize(tokens []string) Vector {
	for _, slot := range f.touched {
		f.keys[slot] = accumEmpty
	}
	f.touched = f.touched[:0]

	h := f.h
	for _, t := range tokens {
		f.add(h.bucket(fnvAddString(unigramSeed, t)))
	}
	if h.cfg.Bigrams {
		for i := 0; i+1 < len(tokens); i++ {
			sum := fnvAddString(bigramSeed, tokens[i])
			sum = fnvAddByte(sum, 0)
			sum = fnvAddString(sum, tokens[i+1])
			f.add(h.bucket(sum))
		}
	}

	f.idx = f.idx[:0]
	for _, slot := range f.touched {
		f.idx = append(f.idx, f.keys[slot])
	}
	slices.Sort(f.idx)
	f.out = f.out[:0]
	for _, bucket := range f.idx {
		f.out = append(f.out, f.count(bucket))
	}
	return Vector{Indices: f.idx, Values: f.out}
}
