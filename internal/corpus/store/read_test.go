package store

import (
	"bytes"
	"testing"
	"unsafe"

	"harassrepro/internal/corpus"
	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/testutil"
)

// unlabelledDocs is testDocs with the ground truth stripped: the shape
// of crawled text, which is what the read path mostly decodes.
func unlabelledDocs(n int, prefix string) []corpus.Document {
	docs := testDocs(n, prefix)
	for i := range docs {
		docs[i].Truth = corpus.GroundTruth{}
	}
	return docs
}

// TestStoreReadAllocs pins the read path's cost: Scan and
// LookupQueryDocs decode an unlabelled document with at most two
// allocations — one string for the fields before Text, one for Text.
// Per-call and per-segment costs (the reused Document, the reader
// reference, the query's bitmaps) are differenced away by measuring
// two stores that differ only in documents per segment.
func TestStoreReadAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const segs = 3
	q, err := ParseQuery("report|channel")
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*corpus.Document, DocRef) error { return nil }
	measure := func(perSeg int) (scan, query float64) {
		s, err := Create(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.AppendAll(unlabelledDocs(segs*perSeg, "al-"), perSeg); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := s.LookupQueryDocs(q, func(*corpus.Document, DocRef) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != segs*perSeg {
			t.Fatalf("query matched %d of %d documents", n, segs*perSeg)
		}
		scan = testing.AllocsPerRun(5, func() {
			if err := s.Scan(noop); err != nil {
				t.Fatal(err)
			}
		})
		query = testing.AllocsPerRun(5, func() {
			if err := s.LookupQueryDocs(q, noop); err != nil {
				t.Fatal(err)
			}
		})
		return scan, query
	}
	const small, large = 20, 120
	scanS, queryS := measure(small)
	scanL, queryL := measure(large)
	docs := float64(segs * (large - small))
	t.Logf("allocs per call at %d/%d docs per segment: Scan %v/%v, LookupQueryDocs %v/%v",
		small, large, scanS, scanL, queryS, queryL)
	if per := (scanL - scanS) / docs; per > 2 {
		t.Errorf("Scan allocates %.2f times per document (%v allocs at %d docs/segment, %v at %d), want <= 2",
			per, scanS, small, scanL, large)
	}
	if per := (queryL - queryS) / docs; per > 2 {
		t.Errorf("LookupQueryDocs allocates %.2f times per document (%v allocs at %d docs/segment, %v at %d), want <= 2",
			per, queryS, small, queryL, large)
	}
}

// TestReadReuseKeepsNoStaleTruth: Scan and LookupQueryDocs decode into
// one reused Document, so a labelled document followed by an
// unlabelled one is exactly where a field the decode failed to reset
// would leak. Every copy of *d must equal its input.
func TestReadReuseKeepsNoStaleTruth(t *testing.T) {
	docs := testDocs(14, "ru-")
	for i := range docs {
		if i%2 == 1 {
			docs[i].Truth = corpus.GroundTruth{}
			docs[i].ThreadID = ""
			continue
		}
		docs[i].Truth = corpus.GroundTruth{
			IsCTH:        true,
			IsDox:        true,
			HardNegative: true,
			CTHLabel:     taxonomy.NewLabel(taxonomy.SubDoxing, taxonomy.SubRaiding),
			DoxPII:       []pii.Type{pii.Phone, pii.Email},
			TargetID:     i + 1,
			TargetGender: gender.Female,
		}
	}
	dir := t.TempDir()
	s0, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.AppendAll(docs, 3); err != nil { // odd segments: the alternation crosses them
		t.Fatal(err)
	}
	s0.Close()
	q, err := ParseQuery("report|channel")
	if err != nil {
		t.Fatal(err)
	}

	openArms(t, func(t *testing.T, openStore func(string) (*Store, error)) {
		s, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var scanned, queried []corpus.Document
		if err := s.Scan(func(d *corpus.Document, _ DocRef) error {
			scanned = append(scanned, *d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.LookupQueryDocs(q, func(d *corpus.Document, _ DocRef) error {
			queried = append(queried, *d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		docsEqual(t, docs, scanned)
		docsEqual(t, docs, queried)
	})
}

// strRange is the address range a string's bytes occupy.
func strRange(s string) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return lo, lo + uintptr(len(s))
}

// TestDecodedTextOwnsItsAllocation pins why a decode makes two string
// allocations rather than one: the fields before Text share one
// allocation, and Text has its own. A consumer that keeps only an ID,
// an author or a date then holds a few dozen bytes, never the text.
func TestDecodedTextOwnsItsAllocation(t *testing.T) {
	d := unlabelledDocs(1, "own-")[0]
	d.Author = "author-own"
	d.Date = "2020-08-09"
	d.Text = "a long crawled text body that a kept ID must not pin in memory"
	payload := encodeDoc(nil, &d)

	var got corpus.Document
	if err := decodeDoc(&got, payload); err != nil {
		t.Fatal(err)
	}
	idLo, _ := strRange(got.ID)
	authorLo, _ := strRange(got.Author)
	dateLo, dateHi := strRange(got.Date)
	textLo, textHi := strRange(got.Text)

	// ID, Author and Date sit at their payload distances from each
	// other: substrings of one copy of the payload prefix.
	pos := func(s string) uintptr { return uintptr(bytes.Index(payload, []byte(s))) }
	if authorLo-idLo != pos(d.Author)-pos(d.ID) || dateLo-idLo != pos(d.Date)-pos(d.ID) {
		t.Fatalf("ID, Author and Date are not one allocation: ID at %#x, Author at +%d, Date at +%d",
			idLo, authorLo-idLo, dateLo-idLo)
	}
	// Text overlaps none of that prefix.
	if textLo < dateHi && idLo < textHi {
		t.Fatalf("Text [%#x,%#x) overlaps the ID..Date allocation [%#x,%#x)", textLo, textHi, idLo, dateHi)
	}
	// And none of it aliases the payload: the strings are owned.
	payLo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
	payHi := payLo + uintptr(len(payload))
	for name, s := range map[string]string{"ID": got.ID, "Date": got.Date, "Text": got.Text} {
		if lo, hi := strRange(s); lo < payHi && payLo < hi {
			t.Fatalf("%s aliases the payload buffer", name)
		}
	}
}
