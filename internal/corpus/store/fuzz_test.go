package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"testing"

	"harassrepro/internal/corpus"
)

// FuzzSegmentDecode throws arbitrary bytes at the record and document
// decoders. The invariants under test:
//
//   - decodeRecord/decodeDoc never panic and never read past the input
//     (the decoders are bounds-checked; any violation panics and fails
//     the fuzzer);
//   - consumed stays within the input and records report their true
//     aligned size;
//   - anything a decode accepts re-encodes to the identical bytes
//     (decode∘encode is the identity on valid inputs), so the decoder
//     accepts only the canonical serialization;
//   - decoding into a reused Document gives exactly a fresh decode:
//     nothing of the document it held before survives, accepted or not.
func FuzzSegmentDecode(f *testing.F) {
	// Seed with real encodings so the fuzzer starts at the format's
	// surface rather than random noise.
	for _, d := range testDocs(3, "fz-") {
		payload := encodeDoc(nil, &d)
		f.Add(appendRecord(segHeader(), payload))
		f.Add(payload)
	}
	f.Add([]byte(segMagic))
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Record framing: walk records the way Scan does.
		pos := 0
		if checkSegHeader(data) == nil {
			pos = segHeaderSz
		}
		for pos < len(data) {
			payload, consumed, err := decodeRecord(data[pos:])
			if err != nil {
				break
			}
			if consumed <= 0 || consumed > len(data)-pos {
				t.Fatalf("decodeRecord consumed %d of %d bytes", consumed, len(data)-pos)
			}
			if len(payload) > consumed-recHeaderSz {
				t.Fatalf("payload %d bytes from a %d-byte record", len(payload), consumed)
			}
			// A valid record re-frames to the identical bytes.
			if refrained := appendRecord(nil, payload); !bytes.Equal(refrained, data[pos:pos+consumed]) {
				t.Fatalf("record at %d does not round-trip", pos)
			}
			pos += consumed
		}

		// Document codec: any accepted payload must round-trip exactly.
		// The reused arm starts from a labelled document with every
		// field set, so a field the decode forgot to reset shows up.
		var d corpus.Document
		err := decodeDoc(&d, data)
		reused := testDocs(1, "stale-")[0]
		rerr := decodeDoc(&reused, data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("fresh decode error %v, reused decode error %v", err, rerr)
		}
		if !reflect.DeepEqual(d, reused) {
			t.Fatalf("reused decode differs from fresh:\nfresh  %+v\nreused %+v", d, reused)
		}
		if err != nil {
			return
		}
		re := encodeDoc(nil, &d)
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded doc re-encodes to %d bytes, input was %d", len(re), len(data))
		}
		var d2 corpus.Document
		if err := decodeDoc(&d2, re); err != nil {
			t.Fatalf("re-encoded doc fails decode: %v", err)
		}
		if d.ID != d2.ID || d.Text != d2.Text ||
			!reflect.DeepEqual(d.Truth.CTHLabel.Subs(), d2.Truth.CTHLabel.Subs()) {
			t.Fatal("decode∘encode∘decode drifted")
		}
	})
}

// FuzzPostingIterator differentially tests the roaring bitmap against
// the naive oracle a posting list abstracts: a sorted, de-duplicated
// []uint32. The fuzzer drives both through the same inserts, then
// checks Iterate order, Contains, Cardinality, and that the serialized
// form round-trips bit-equal — across the array/bitmap container
// boundary (values are folded to force dense containers sometimes).
func FuzzPostingIterator(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 255, 255}, uint16(1))
	f.Add(bytes.Repeat([]byte{7, 3}, 400), uint16(3))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, span uint16) {
		// Derive inserts from the fuzz bytes. A small span folds values
		// into few containers, pushing arrays past arrayMax into bitmap
		// containers; a large span scatters across many sparse arrays.
		// Bounded so one exec stays fast and the engine explores widely.
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		vals := make([]uint32, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			v := uint32(binary.LittleEndian.Uint16(data[i:]))
			if span > 0 {
				v |= uint32(data[i]%byte(span%8+1)) << 16
			}
			vals = append(vals, v)
		}

		var bm Bitmap
		oracle := map[uint32]bool{}
		for _, v := range vals {
			bm.Add(v)
			oracle[v] = true
		}

		want := make([]uint32, 0, len(oracle))
		for v := range oracle {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		var got []uint32
		bm.Iterate(func(v uint32) bool {
			got = append(got, v)
			return true
		})
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("Iterate: want %d values, got %d", len(want), len(got))
		}
		if bm.Cardinality() != len(want) {
			t.Fatalf("Cardinality = %d, want %d", bm.Cardinality(), len(want))
		}
		for _, v := range vals {
			if !bm.Contains(v) {
				t.Fatalf("Contains(%d) = false after Add", v)
			}
		}
		// Early-stop contract.
		if len(want) > 1 {
			n := 0
			bm.Iterate(func(uint32) bool { n++; return n < 2 })
			if n != 2 {
				t.Fatalf("Iterate ran %d steps after stop", n)
			}
		}

		// Serialization round-trip: decode(encode(bm)) iterates
		// identically and re-encodes to the same bytes.
		enc := bm.appendTo(nil)
		dec, consumed, err := decodeBitmap(enc)
		if err != nil {
			t.Fatalf("decodeBitmap of own encoding: %v", err)
		}
		if consumed != len(enc) {
			t.Fatalf("decodeBitmap consumed %d of %d bytes", consumed, len(enc))
		}
		var got2 []uint32
		dec.Iterate(func(v uint32) bool {
			got2 = append(got2, v)
			return true
		})
		if !reflect.DeepEqual(got, got2) {
			t.Fatal("decoded bitmap iterates differently")
		}
		if re := dec.appendTo(nil); !bytes.Equal(enc, re) {
			t.Fatal("bitmap serialization does not round-trip")
		}

		// Arbitrary bytes into decodeBitmap must never panic or
		// over-read (it reports consumed <= len).
		if dm, n, err := decodeBitmap(data); err == nil {
			if n > len(data) {
				t.Fatalf("decodeBitmap consumed %d of %d", n, len(data))
			}
			if re := dm.appendTo(nil); !bytes.Equal(re, data[:n]) {
				t.Fatal("accepted non-canonical bitmap serialization")
			}
		}
	})
}

// TestSegmentWalkRoundTrip pins the encode→frame→decode path the fuzz
// seeds rely on: a segment built from known docs walks back to exactly
// those docs.
func TestSegmentWalkRoundTrip(t *testing.T) {
	docs := testDocs(4, "seed-")
	seg := segHeader()
	for i := range docs {
		seg = appendRecord(seg, encodeDoc(nil, &docs[i]))
	}
	var out []corpus.Document
	pos := segHeaderSz
	for pos < len(seg) {
		payload, n, err := decodeRecord(seg[pos:])
		if err != nil {
			t.Fatal(err)
		}
		var d corpus.Document
		if err := decodeDoc(&d, payload); err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
		pos += n
	}
	if pos != len(seg) {
		t.Fatalf("walked %d of %d bytes", pos, len(seg))
	}
	docsEqual(t, docs, out)
}
