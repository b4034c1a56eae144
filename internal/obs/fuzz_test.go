package obs

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzHistogramBucketIndex is the differential fuzz target for the
// histogram bucket-boundary math: on arbitrary (bounds, value) pairs
// the linear-scan bucketIndex must agree with a sort.Search reference
// and satisfy the bucket invariants the encoders rely on (cumulative
// monotonicity comes for free once placement is right).
//
// raw encodes the bounds as consecutive big-endian int64s; the fuzzer
// mutates byte order, duplicates and signs freely, and the target
// normalises to the strictly-increasing form NewHistogram enforces.
func FuzzHistogramBucketIndex(f *testing.F) {
	seed := func(vals []int64, v int64) {
		raw := make([]byte, 8*len(vals))
		for i, b := range vals {
			binary.BigEndian.PutUint64(raw[8*i:], uint64(b))
		}
		f.Add(raw, v)
	}
	seed([]int64{0}, 0)
	seed([]int64{10, 100, 1000}, 100)      // exact boundary hit
	seed([]int64{10, 100, 1000}, 101)      // just past a boundary
	seed([]int64{-5, 0, 5}, -6)            // below the lowest bound
	seed([]int64{1 << 62}, 1<<62+1)        // overflow bucket near the top
	seed(DurationBuckets(), 1500)          // the production layout
	seed([]int64{-1 << 63, 1<<63 - 1}, -1) // extreme int64 bounds
	seed([]int64{7, 7, 3}, 7)              // duplicates and disorder in raw form

	f.Fuzz(func(t *testing.T, raw []byte, v int64) {
		var bounds []int64
		for i := 0; i+8 <= len(raw) && len(bounds) < 64; i += 8 {
			bounds = append(bounds, int64(binary.BigEndian.Uint64(raw[i:])))
		}
		// Normalise to the strictly-increasing form the constructor
		// enforces.
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		dst := bounds[:0]
		for i, b := range bounds {
			if i == 0 || b != dst[len(dst)-1] {
				dst = append(dst, b)
			}
		}
		bounds = dst
		if len(bounds) == 0 {
			return
		}

		i := bucketIndex(bounds, v)
		if i < 0 || i > len(bounds) {
			t.Fatalf("bucketIndex(%v, %d) = %d out of range", bounds, v, i)
		}
		if i < len(bounds) && v > bounds[i] {
			t.Fatalf("bucketIndex(%v, %d) = %d but v > bounds[i]", bounds, v, i)
		}
		if i > 0 && v <= bounds[i-1] {
			t.Fatalf("bucketIndex(%v, %d) = %d but v <= bounds[i-1]", bounds, v, i)
		}
		ref := sort.Search(len(bounds), func(j int) bool { return bounds[j] >= v })
		if i != ref {
			t.Fatalf("bucketIndex(%v, %d) = %d, sort.Search reference = %d", bounds, v, i, ref)
		}

		// End to end through a histogram: the observation must land in
		// exactly one bucket and cumulative counts must be monotone.
		r := NewRegistry()
		hist := r.NewHistogram("fuzz_ns", "fuzz", bounds)
		hist.Observe(v)
		if got := hist.Count(); got != 1 {
			t.Fatalf("count after one observation = %d", got)
		}
		m, ok := findMetric(r.Snapshot(), "fuzz_ns")
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		var prev uint64
		for j, b := range m.Buckets {
			if b.Count < prev {
				t.Fatalf("cumulative counts not monotone at bucket %d: %+v", j, m.Buckets)
			}
			prev = b.Count
		}
		if m.Buckets[len(m.Buckets)-1].Count != 1 {
			t.Fatalf("+Inf bucket = %d, want 1", m.Buckets[len(m.Buckets)-1].Count)
		}
	})
}
