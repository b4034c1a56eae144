package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Bitmap is a roaring-style compressed bitmap over uint32 document
// ordinals: values are partitioned by their high 16 bits into
// containers, each either a sorted uint16 array (sparse) or a 64Ki-bit
// bitmap (dense). Posting lists are Bitmaps, one per (token, segment).
//
// The zero value is an empty bitmap. Not safe for concurrent mutation;
// read-side methods are safe once the bitmap is built.
type Bitmap struct {
	containers []container
}

// arrayMax is the cardinality above which an array container converts
// to a bitmap container (the classic roaring threshold: 4096 uint16s =
// 8 KiB, the size of a full bitmap container).
const arrayMax = 4096

const bitmapWords = 1 << 16 / 64

type container struct {
	key   uint16 // high 16 bits of the values held
	array []uint16
	bits  []uint64 // non-nil for a bitmap container
	n     int      // cardinality (bitmap containers)
}

// find returns the index of the container for key, or the insertion
// point with ok=false.
func (b *Bitmap) find(key uint16) (int, bool) {
	i := sort.Search(len(b.containers), func(i int) bool { return b.containers[i].key >= key })
	return i, i < len(b.containers) && b.containers[i].key == key
}

// Add inserts v. Adds need not be ordered; duplicates are no-ops.
func (b *Bitmap) Add(v uint32) {
	key, low := uint16(v>>16), uint16(v)
	i, ok := b.find(key)
	if !ok {
		b.containers = append(b.containers, container{})
		copy(b.containers[i+1:], b.containers[i:])
		b.containers[i] = container{key: key}
	}
	c := &b.containers[i]
	if c.bits != nil {
		w, m := low/64, uint64(1)<<(low%64)
		if c.bits[w]&m == 0 {
			c.bits[w] |= m
			c.n++
		}
		return
	}
	// The index builder adds ordinals in order, often the same one
	// several times in a row: check the array's end before searching it.
	switch n := len(c.array); {
	case n > 0 && c.array[n-1] == low:
		return
	case n == 0 || c.array[n-1] < low:
		c.array = append(c.array, low)
	default:
		j := sort.Search(n, func(j int) bool { return c.array[j] >= low })
		if c.array[j] == low {
			return
		}
		c.array = append(c.array, 0)
		copy(c.array[j+1:], c.array[j:])
		c.array[j] = low
	}
	if len(c.array) > arrayMax {
		words := make([]uint64, bitmapWords)
		for _, lv := range c.array {
			words[lv/64] |= uint64(1) << (lv % 64)
		}
		c.bits, c.n, c.array = words, len(c.array), nil
	}
}

// Contains reports whether v is set.
func (b *Bitmap) Contains(v uint32) bool {
	key, low := uint16(v>>16), uint16(v)
	i, ok := b.find(key)
	if !ok {
		return false
	}
	c := &b.containers[i]
	if c.bits != nil {
		return c.bits[low/64]&(uint64(1)<<(low%64)) != 0
	}
	j := sort.Search(len(c.array), func(j int) bool { return c.array[j] >= low })
	return j < len(c.array) && c.array[j] == low
}

// Cardinality returns the number of set values.
func (b *Bitmap) Cardinality() int {
	n := 0
	for i := range b.containers {
		c := &b.containers[i]
		if c.bits != nil {
			n += c.n
		} else {
			n += len(c.array)
		}
	}
	return n
}

// And returns the intersection of b and o as a new bitmap. Containers
// are walked pairwise by key (both sides keep them sorted), and within
// a shared key the cheapest pairing runs: array∩array is a two-pointer
// merge, array∩bitmap filters the array through the bitmap's words,
// and bitmap∩bitmap is a word-wise AND that collapses back to an array
// container when the result fits. Neither operand is modified.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	out := &Bitmap{}
	if b == nil || o == nil {
		return out
	}
	i, j := 0, 0
	for i < len(b.containers) && j < len(o.containers) {
		ca, co := &b.containers[i], &o.containers[j]
		switch {
		case ca.key < co.key:
			i++
		case ca.key > co.key:
			j++
		default:
			if c, ok := andContainers(ca, co); ok {
				out.containers = append(out.containers, c)
			}
			i++
			j++
		}
	}
	return out
}

// andContainers intersects two containers sharing a key, reporting
// ok=false when the result is empty (empty containers are never
// stored).
func andContainers(a, b *container) (container, bool) {
	switch {
	case a.bits == nil && b.bits == nil:
		var arr []uint16
		i, j := 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				i++
			case a.array[i] > b.array[j]:
				j++
			default:
				arr = append(arr, a.array[i])
				i++
				j++
			}
		}
		if len(arr) == 0 {
			return container{}, false
		}
		return container{key: a.key, array: arr}, true
	case a.bits != nil && b.bits != nil:
		words := make([]uint64, bitmapWords)
		n := 0
		for w := range words {
			words[w] = a.bits[w] & b.bits[w]
			n += bits.OnesCount64(words[w])
		}
		if n == 0 {
			return container{}, false
		}
		return packContainer(a.key, words, n), true
	default:
		sparse, dense := a, b
		if a.bits != nil {
			sparse, dense = b, a
		}
		var arr []uint16
		for _, low := range sparse.array {
			if dense.bits[low/64]&(uint64(1)<<(low%64)) != 0 {
				arr = append(arr, low)
			}
		}
		if len(arr) == 0 {
			return container{}, false
		}
		return container{key: a.key, array: arr}, true
	}
}

// Or returns the union of b and o as a new bitmap. Containers are
// walked pairwise by key like And; unmatched containers are cloned
// into the result (never aliased — the operands stay immutable), and a
// merged container that outgrows arrayMax converts to a bitmap
// container exactly as Add would.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	out := &Bitmap{}
	if b == nil {
		b = &Bitmap{}
	}
	if o == nil {
		o = &Bitmap{}
	}
	i, j := 0, 0
	for i < len(b.containers) || j < len(o.containers) {
		switch {
		case j >= len(o.containers) || (i < len(b.containers) && b.containers[i].key < o.containers[j].key):
			out.containers = append(out.containers, cloneContainer(&b.containers[i]))
			i++
		case i >= len(b.containers) || o.containers[j].key < b.containers[i].key:
			out.containers = append(out.containers, cloneContainer(&o.containers[j]))
			j++
		default:
			out.containers = append(out.containers, orContainers(&b.containers[i], &o.containers[j]))
			i++
			j++
		}
	}
	return out
}

// orContainers unions two containers sharing a key. The union of two
// non-empty containers is never empty, so there is no ok flag.
func orContainers(a, b *container) container {
	if a.bits == nil && b.bits == nil {
		arr := make([]uint16, 0, len(a.array)+len(b.array))
		i, j := 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				arr = append(arr, a.array[i])
				i++
			case a.array[i] > b.array[j]:
				arr = append(arr, b.array[j])
				j++
			default:
				arr = append(arr, a.array[i])
				i++
				j++
			}
		}
		arr = append(arr, a.array[i:]...)
		arr = append(arr, b.array[j:]...)
		if len(arr) <= arrayMax {
			return container{key: a.key, array: arr}
		}
		words := make([]uint64, bitmapWords)
		for _, low := range arr {
			words[low/64] |= uint64(1) << (low % 64)
		}
		return container{key: a.key, bits: words, n: len(arr)}
	}
	words := make([]uint64, bitmapWords)
	for _, c := range []*container{a, b} {
		if c.bits != nil {
			for w, word := range c.bits {
				words[w] |= word
			}
			continue
		}
		for _, low := range c.array {
			words[low/64] |= uint64(1) << (low % 64)
		}
	}
	n := 0
	for _, word := range words {
		n += bits.OnesCount64(word)
	}
	return packContainer(a.key, words, n)
}

// AndNot returns the values of b not present in o, as a new bitmap.
// Containers unmatched in o are cloned through; matched pairs subtract
// with the cheapest pairing and collapse to an array container when
// the survivor count fits. Neither operand is modified.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	out := &Bitmap{}
	if b == nil {
		return out
	}
	if o == nil {
		o = &Bitmap{}
	}
	j := 0
	for i := range b.containers {
		ca := &b.containers[i]
		for j < len(o.containers) && o.containers[j].key < ca.key {
			j++
		}
		if j >= len(o.containers) || o.containers[j].key != ca.key {
			out.containers = append(out.containers, cloneContainer(ca))
			continue
		}
		if c, ok := andNotContainers(ca, &o.containers[j]); ok {
			out.containers = append(out.containers, c)
		}
	}
	return out
}

// andNotContainers computes a minus b for two containers sharing a
// key, reporting ok=false when nothing survives.
func andNotContainers(a, b *container) (container, bool) {
	switch {
	case a.bits == nil && b.bits == nil:
		var arr []uint16
		j := 0
		for _, low := range a.array {
			for j < len(b.array) && b.array[j] < low {
				j++
			}
			if j < len(b.array) && b.array[j] == low {
				continue
			}
			arr = append(arr, low)
		}
		if len(arr) == 0 {
			return container{}, false
		}
		return container{key: a.key, array: arr}, true
	case a.bits == nil:
		var arr []uint16
		for _, low := range a.array {
			if b.bits[low/64]&(uint64(1)<<(low%64)) == 0 {
				arr = append(arr, low)
			}
		}
		if len(arr) == 0 {
			return container{}, false
		}
		return container{key: a.key, array: arr}, true
	default:
		words := make([]uint64, bitmapWords)
		copy(words, a.bits)
		if b.bits != nil {
			for w, word := range b.bits {
				words[w] &^= word
			}
		} else {
			for _, low := range b.array {
				words[low/64] &^= uint64(1) << (low % 64)
			}
		}
		n := 0
		for _, word := range words {
			n += bits.OnesCount64(word)
		}
		if n == 0 {
			return container{}, false
		}
		return packContainer(a.key, words, n), true
	}
}

// packContainer wraps a populated word set as a container, collapsing
// to the array form when the cardinality fits (the invariant Add and
// andContainers maintain, kept here so equal sets always have equal
// representations).
func packContainer(key uint16, words []uint64, n int) container {
	if n > arrayMax {
		return container{key: key, bits: words, n: n}
	}
	arr := make([]uint16, 0, n)
	for w, word := range words {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			arr = append(arr, uint16(w*64+t))
			word &^= 1 << t
		}
	}
	return container{key: key, array: arr}
}

// cloneContainer deep-copies a container so results never alias an
// operand's storage.
func cloneContainer(c *container) container {
	out := container{key: c.key, n: c.n}
	if c.bits != nil {
		out.bits = make([]uint64, bitmapWords)
		copy(out.bits, c.bits)
		return out
	}
	out.array = append([]uint16(nil), c.array...)
	return out
}

// Iterate calls fn for every set value in ascending order, stopping if
// fn returns false.
func (b *Bitmap) Iterate(fn func(v uint32) bool) {
	for i := range b.containers {
		c := &b.containers[i]
		hi := uint32(c.key) << 16
		if c.bits == nil {
			for _, low := range c.array {
				if !fn(hi | uint32(low)) {
					return
				}
			}
			continue
		}
		for w, word := range c.bits {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				if !fn(hi | uint32(w*64+t)) {
					return
				}
				word &^= 1 << t
			}
		}
	}
}

// Bitmap serialization, embedded inside index files:
//
//	containerCount uint32
//	per container: key uint16 | kind uint8 (0 array, 1 bitmap) |
//	  array:  n uint16 | n × uint16 values
//	  bitmap: 1024 × uint64 words
//
// The framing lives inside a CRC-protected index file, so decode
// errors here indicate either a torn file or a logic bug; both surface
// as errors, never panics or over-reads.

const (
	kindArray  = 0
	kindBitmap = 1
)

// appendTo serializes the bitmap.
func (b *Bitmap) appendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.containers)))
	for i := range b.containers {
		c := &b.containers[i]
		buf = binary.LittleEndian.AppendUint16(buf, c.key)
		if c.bits != nil {
			buf = append(buf, kindBitmap)
			for _, w := range c.bits {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
			continue
		}
		buf = append(buf, kindArray)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.array)))
		for _, v := range c.array {
			buf = binary.LittleEndian.AppendUint16(buf, v)
		}
	}
	return buf
}

// readBitmap checks the serialized bitmap at the head of b, decodes it
// into into unless that is nil, and returns the bytes it spans. Keys and
// array values must be strictly increasing, so every valid
// serialization round-trips to identical bytes.
func readBitmap(b []byte, into *Bitmap) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("store: bitmap header truncated")
	}
	nc := int(binary.LittleEndian.Uint32(b))
	pos := 4
	if nc > len(b)/3 { // each container needs >= 3 header bytes
		return 0, fmt.Errorf("store: implausible container count %d", nc)
	}
	if into != nil {
		into.containers = make([]container, 0, nc)
	}
	prevKey := -1
	for i := 0; i < nc; i++ {
		if len(b)-pos < 3 {
			return 0, fmt.Errorf("store: bitmap container %d truncated", i)
		}
		key := binary.LittleEndian.Uint16(b[pos:])
		kind := b[pos+2]
		pos += 3
		if int(key) <= prevKey {
			return 0, fmt.Errorf("store: container keys out of order")
		}
		prevKey = int(key)
		switch kind {
		case kindArray:
			if len(b)-pos < 2 {
				return 0, fmt.Errorf("store: array container %d truncated", i)
			}
			n := int(binary.LittleEndian.Uint16(b[pos:]))
			pos += 2
			if len(b)-pos < 2*n {
				return 0, fmt.Errorf("store: array container %d values truncated", i)
			}
			prev := -1
			for vals := b[pos : pos+2*n]; len(vals) >= 2; vals = vals[2:] {
				v := int(vals[0]) | int(vals[1])<<8
				if v <= prev {
					return 0, fmt.Errorf("store: array container values out of order")
				}
				prev = v
			}
			if into != nil {
				arr := make([]uint16, n)
				for j := range arr {
					arr[j] = binary.LittleEndian.Uint16(b[pos+2*j:])
				}
				into.containers = append(into.containers, container{key: key, array: arr})
			}
			pos += 2 * n
		case kindBitmap:
			if len(b)-pos < 8*bitmapWords {
				return 0, fmt.Errorf("store: bitmap container %d truncated", i)
			}
			if into != nil {
				words := make([]uint64, bitmapWords)
				n := 0
				for j := range words {
					words[j] = binary.LittleEndian.Uint64(b[pos+8*j:])
					n += bits.OnesCount64(words[j])
				}
				into.containers = append(into.containers, container{key: key, bits: words, n: n})
			}
			pos += 8 * bitmapWords
		default:
			return 0, fmt.Errorf("store: unknown container kind %d", kind)
		}
	}
	return pos, nil
}
