package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/testutil"
)

// appendRecord frames payload into buf: header, payload, alignment pad
// — the record layout appendDocRecord writes, from a payload already
// encoded.
func appendRecord(buf, payload []byte) []byte {
	var hdr [recHeaderSz]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	for rem := (recHeaderSz + len(payload)) % recAlign; rem != 0 && rem < recAlign; rem++ {
		buf = append(buf, 0)
	}
	return buf
}

// decodeBitmap parses a serialized bitmap from b, returning the bitmap
// and the bytes consumed (readBitmap).
func decodeBitmap(b []byte) (*Bitmap, int, error) {
	bm := &Bitmap{}
	n, err := readBitmap(b, bm)
	if err != nil {
		return nil, 0, err
	}
	return bm, n, nil
}

// eagerIndex is an .idx file decoded whole: every token as a string and
// every posting as a Bitmap.
type eagerIndex struct {
	offsets []uint64
	tokens  []string
	posting []*Bitmap
}

// decodeIndex is the oracle for openIndex and segIndex.lookup: it
// parses and verifies a complete .idx file by decoding every posting up
// front (with decodeBitmapEager), the way Open once loaded every index.
func decodeIndex(b []byte) (*eagerIndex, error) {
	if len(b) < 16+4 {
		return nil, fmt.Errorf("store: index file truncated (%d bytes)", len(b))
	}
	body, foot := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != foot {
		return nil, fmt.Errorf("store: index checksum mismatch")
	}
	if string(body[:8]) != idxMagic {
		return nil, fmt.Errorf("store: bad index magic")
	}
	if v := binary.LittleEndian.Uint32(body[8:]); v != version {
		return nil, fmt.Errorf("store: index version %d, want %d", v, version)
	}
	docs := int(binary.LittleEndian.Uint32(body[12:]))
	pos := 16
	if len(body)-pos < 8*docs {
		return nil, fmt.Errorf("store: index offset table truncated")
	}
	ix := &eagerIndex{offsets: make([]uint64, docs)}
	for i := range ix.offsets {
		ix.offsets[i] = binary.LittleEndian.Uint64(body[pos+8*i:])
	}
	pos += 8 * docs
	if len(body)-pos < 4 {
		return nil, fmt.Errorf("store: index token count truncated")
	}
	nTok := int(binary.LittleEndian.Uint32(body[pos:]))
	pos += 4
	ix.tokens = make([]string, 0, min(nTok, len(body)-pos))
	ix.posting = make([]*Bitmap, 0, cap(ix.tokens))
	for i := 0; i < nTok; i++ {
		n, sz := binary.Uvarint(body[pos:])
		if sz <= 0 || n > uint64(len(body)-pos-sz) {
			return nil, fmt.Errorf("store: index token %d truncated", i)
		}
		pos += sz
		tok := string(body[pos : pos+int(n)])
		pos += int(n)
		if i > 0 && tok <= ix.tokens[i-1] {
			return nil, fmt.Errorf("store: index tokens out of order")
		}
		bm, consumed, err := decodeBitmapEager(body[pos:])
		if err != nil {
			return nil, fmt.Errorf("store: index token %q: %w", tok, err)
		}
		pos += consumed
		ix.tokens = append(ix.tokens, tok)
		ix.posting = append(ix.posting, bm)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("store: %d trailing index bytes", len(body)-pos)
	}
	return ix, nil
}

// decodeBitmapEager is the oracle's bitmap decoder, kept apart from
// decodeBitmap so the two are checked against each other: it parses a
// serialized bitmap, requiring strictly increasing container keys and
// array values.
func decodeBitmapEager(b []byte) (*Bitmap, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("store: bitmap header truncated")
	}
	nc := int(binary.LittleEndian.Uint32(b))
	pos := 4
	bm := &Bitmap{}
	if nc > len(b)/3 { // each container needs >= 3 header bytes
		return nil, 0, fmt.Errorf("store: implausible container count %d", nc)
	}
	bm.containers = make([]container, 0, nc)
	for i := 0; i < nc; i++ {
		if len(b)-pos < 3 {
			return nil, 0, fmt.Errorf("store: bitmap container %d truncated", i)
		}
		key := binary.LittleEndian.Uint16(b[pos:])
		kind := b[pos+2]
		pos += 3
		if i > 0 && key <= bm.containers[i-1].key {
			return nil, 0, fmt.Errorf("store: container keys out of order")
		}
		switch kind {
		case kindArray:
			if len(b)-pos < 2 {
				return nil, 0, fmt.Errorf("store: array container %d truncated", i)
			}
			n := int(binary.LittleEndian.Uint16(b[pos:]))
			pos += 2
			if len(b)-pos < 2*n {
				return nil, 0, fmt.Errorf("store: array container %d values truncated", i)
			}
			arr := make([]uint16, n)
			for j := 0; j < n; j++ {
				arr[j] = binary.LittleEndian.Uint16(b[pos+2*j:])
				if j > 0 && arr[j] <= arr[j-1] {
					return nil, 0, fmt.Errorf("store: array container values out of order")
				}
			}
			pos += 2 * n
			bm.containers = append(bm.containers, container{key: key, array: arr})
		case kindBitmap:
			if len(b)-pos < 8*bitmapWords {
				return nil, 0, fmt.Errorf("store: bitmap container %d truncated", i)
			}
			words := make([]uint64, bitmapWords)
			n := 0
			for j := range words {
				words[j] = binary.LittleEndian.Uint64(b[pos+8*j:])
				n += bits.OnesCount64(words[j])
			}
			pos += 8 * bitmapWords
			bm.containers = append(bm.containers, container{key: key, bits: words, n: n})
		default:
			return nil, 0, fmt.Errorf("store: unknown container kind %d", kind)
		}
	}
	return bm, pos, nil
}

// checkIndexMatchesOracle opens b lazily and eagerly and requires the
// same verdict (the same error text when both reject). When both
// accept, every token must sit at its oracle position, every lookup
// must decode its oracle posting and return that same bitmap again,
// and lookups of absent terms — each token with a byte dropped from
// either end or one appended — must return nil.
func checkIndexMatchesOracle(t *testing.T, b []byte) {
	t.Helper()
	ix, err := openIndex(b)
	want, werr := decodeIndex(b)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("openIndex error %v, eager decode error %v", err, werr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(ix.offsets, want.offsets) || len(ix.terms) != len(want.tokens) {
		t.Fatalf("openIndex holds %d offsets and %d tokens, eager decode %d and %d",
			len(ix.offsets), len(ix.terms), len(want.offsets), len(want.tokens))
	}
	present := map[string]bool{}
	for i, tok := range want.tokens {
		present[tok] = true
		if got := ix.data[ix.terms[i].lo:ix.terms[i].hi]; string(got) != tok {
			t.Fatalf("token %d is %q, eager decode %q", i, got, tok)
		}
	}
	for i, tok := range want.tokens {
		bm := ix.lookup(tok)
		if !reflect.DeepEqual(bm, want.posting[i]) {
			t.Fatalf("lookup(%q) = %v, eager decode %v", tok, values(bm), values(want.posting[i]))
		}
		if again := ix.lookup(tok); again != bm {
			t.Fatalf("lookup(%q) decoded its posting twice", tok)
		}
		absent := []string{tok + "\x00", tok + "a", tok + "\xff"}
		if tok != "" {
			absent = append(absent, tok[1:], tok[:len(tok)-1])
		}
		for _, a := range absent {
			if !present[a] && ix.lookup(a) != nil {
				t.Fatalf("lookup(%q) of an absent term found a posting", a)
			}
		}
	}
	if !present[""] && ix.lookup("") != nil {
		t.Fatal(`lookup("") of an absent term found a posting`)
	}
}

// lazyIndexDocs draws a seeded batch of n documents over a small
// vocabulary with mixed case, non-ASCII words and field values; every
// one holds "mass", so a batch over 4,096 documents gives "mass" and
// the common field terms bitmap containers.
func lazyIndexDocs(rng *rand.Rand, n int) []corpus.Document {
	words := []string{"mass", "Report", "RAID", "café", "x_1", "42", "ça", "dox", "спасибо", "Zürich", "a", "ab", "abc"}
	fields := []string{"boards", "Pastes", "gab", "Tg-Channel.Example", "ünï.example", ""}
	docs := make([]corpus.Document, n)
	for i := range docs {
		text := []string{"mass"}
		for k := rng.Intn(6); k >= 0; k-- {
			text = append(text, words[rng.Intn(len(words))])
		}
		docs[i] = corpus.Document{
			Text:     strings.Join(text, " ,"),
			Dataset:  corpus.Dataset(fields[rng.Intn(len(fields))]),
			Platform: corpus.Platform(fields[rng.Intn(len(fields))]),
			Domain:   fields[rng.Intn(len(fields))],
		}
	}
	return docs
}

// TestLookupMatchesEagerDecode: over seeded segments — some over 4,096
// documents, with field terms and non-ASCII terms — every token's
// lazily decoded posting equals the eager decode of the same bytes, and
// absent terms, prefixes and suffixes of present ones among them, find
// nothing.
func TestLookupMatchesEagerDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for round := 0; round < 12; round++ {
		n := 1 + rng.Intn(300)
		if round%4 == 0 {
			n = 4097 + rng.Intn(3000)
		}
		idx := buildSegment(lazyIndexDocs(rng, n)).idx
		checkIndexMatchesOracle(t, idx)
		if n > arrayMax {
			want, err := decodeIndex(idx)
			if err != nil {
				t.Fatal(err)
			}
			if mass := want.posting[slices.Index(want.tokens, "mass")]; mass.containers[0].bits == nil {
				t.Fatalf("round %d: %d documents hold \"mass\" in an array container", round, n)
			}
		}
	}
}

// TestOpenRejectsDisorderedIndex: an .idx file whose checksum is valid
// but whose tokens, container keys or array values are out of order, or
// whose container kind is unknown, fails Open with a *CorruptError, as
// a flipped byte does.
func TestOpenRejectsDisorderedIndex(t *testing.T) {
	array := func(key uint16, vals ...uint16) []byte {
		b := binary.LittleEndian.AppendUint16(nil, key)
		b = binary.LittleEndian.AppendUint16(append(b, kindArray), uint16(len(vals)))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint16(b, v)
		}
		return b
	}
	posting := func(containers ...[]byte) []byte {
		return slices.Concat(append([][]byte{binary.LittleEndian.AppendUint32(nil, uint32(len(containers)))}, containers...)...)
	}
	for _, tc := range []struct {
		name, want string
		terms      []string
		postings   [][]byte
	}{
		{"tokens", "tokens out of order", []string{"b", "a"}, [][]byte{posting(array(0, 0)), posting(array(0, 1))}},
		{"container-keys", "keys out of order", []string{"a"}, [][]byte{posting(array(1, 0), array(0, 1))}},
		{"array-values", "values out of order", []string{"a"}, [][]byte{posting(array(0, 1, 1))}},
		{"container-kind", "unknown container kind", []string{"a"}, [][]byte{{1, 0, 0, 0, 0, 0, 7}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := buildStore(t, dir, testDocs(2, "o-"))
			idx := append([]byte(idxMagic), binary.LittleEndian.AppendUint32(nil, version)...)
			idx = binary.LittleEndian.AppendUint32(idx, 2)
			_, indexes, _ := s.snapshot()
			for _, off := range indexes[0].offsets {
				idx = binary.LittleEndian.AppendUint64(idx, off)
			}
			idx = binary.LittleEndian.AppendUint32(idx, uint32(len(tc.terms)))
			for i, term := range tc.terms {
				idx = append(binary.AppendUvarint(idx, uint64(len(term))), term...)
				idx = append(idx, tc.postings[i]...)
			}
			idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx, castagnoli))
			man := s.man
			man.Segments[0].IdxBytes = int64(len(idx))
			if err := os.WriteFile(filepath.Join(dir, man.Segments[0].Name+idxSuffix), idx, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.commitManifest(man); err != nil {
				t.Fatal(err)
			}
			s.Close()
			var ce *CorruptError
			if _, err := Open(dir); !errors.As(err, &ce) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error %v, want a *CorruptError naming %q", err, tc.want)
			}
		})
	}
}

// TestBuildSegmentSizesOnce: buildSegment writes the records that
// framing each encoded payload with appendRecord writes, into a .seg
// buffer that never grew (capacity equals length), and payloadLen is
// the encoded length of every document.
func TestBuildSegmentSizesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	docs := append(testDocs(30, "size-"), lazyIndexDocs(rng, 200)...)
	docs[3].PosInThread, docs[4].ThreadSize, docs[5].Truth.TargetID = 1<<20, 300, 1<<40
	docs[6].Text = strings.Repeat("long text ", 40)
	want := segHeader()
	for i := range docs {
		payload := encodeDoc(nil, &docs[i])
		if got := payloadLen(&docs[i]); got != len(payload) {
			t.Fatalf("doc %d: payloadLen %d, encoded %d bytes", i, got, len(payload))
		}
		want = appendRecord(want, payload)
	}
	b := buildSegment(docs)
	if !bytes.Equal(b.seg, want) {
		t.Fatal("buildSegment's records differ from appendRecord's")
	}
	if cap(b.seg) != len(b.seg) {
		t.Fatalf(".seg is %d bytes in a buffer of %d", len(b.seg), cap(b.seg))
	}
}

// TestLookupConcurrentFirstUse: eight goroutines run the same lookups
// and queries on a freshly opened store, so every posting's first
// decode races; all of them get the results a sequential walk of
// another fresh open gets, and every index hands each term's goroutines
// one bitmap.
func TestLookupConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	dir := t.TempDir()
	buildStore(t, dir, lazyIndexDocs(rng, 5000), lazyIndexDocs(rng, 700), testDocs(40, "fu-")).Close()
	terms := []string{"mass", "report", "café", "спасибо", "dataset:boards", "platform:pastes", "domain:ünï.example", "absent"}
	var queries []*Query
	for _, spec := range []string{"raid,-dox", "ça|zürich,dataset:gab", "42,x_1,-platform:boards", "channel|спасибо"} {
		q, err := ParseQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	run := func(s *Store) []string {
		var out []string
		for _, term := range terms {
			n := 0
			s.Lookup(term, func(ref DocRef) bool {
				n++
				out = append(out, fmt.Sprintf("%s %d/%d", term, ref.Segment, ref.Ordinal))
				return true
			})
			out = append(out, fmt.Sprintf("%s: %d", term, n))
		}
		for _, q := range queries {
			if err := s.LookupQueryDocs(q, func(d *corpus.Document, ref DocRef) error {
				out = append(out, fmt.Sprintf("%s %d/%d %s", q, ref.Segment, ref.Ordinal, d.Text))
				return nil
			}); err != nil {
				out = append(out, err.Error())
			}
		}
		return out
	}
	ref, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref)
	ref.Close()
	if len(want) <= len(terms) {
		t.Fatal("the lookups found nothing")
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 8
	got := make([][]string, workers)
	seen := make([][]*Bitmap, workers)
	_, indexes, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, ix := range indexes {
				for _, term := range terms {
					seen[w] = append(seen[w], ix.lookup(NormalizeToken(term)))
				}
			}
			got[w] = run(s)
		}()
	}
	close(start)
	wg.Wait()
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("goroutine %d: %d results differ from a sequential walk's %d", w, len(got[w]), len(want))
		}
		if !slices.Equal(seen[w], seen[0]) {
			t.Fatalf("goroutine %d was handed other bitmaps than goroutine 0", w)
		}
	}
}

// TestOpenAllocs pins what Open costs per segment: reading and
// verifying the files, not decoding postings (decoding every posting
// made about 2,300 allocations a segment). The store is the benchmark's
// shape, a seed-7 corpus in 86 segments of 1,000 documents. Open makes
// about 19 allocations a segment, most of them in the os package: the
// segment's name in the manifest, two paths, a stat, a file read (open,
// stat, buffer), two directory entries, and the index with its offset
// and term tables.
func TestOpenAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := corpus.NewGenerator(corpus.Config{Seed: 7, VolumeScale: 10_000, PositiveScale: 10})
	corpora := g.Generate()
	corpora[corpus.Blogs] = g.GenerateBlogs(corpus.DefaultBlogSpecs(10))
	var docs []corpus.Document
	for _, ds := range corpus.Datasets() {
		docs = append(docs, corpora[ds].Docs...)
	}
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(docs, 1000); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs := (len(docs) + 999) / 1000
	if segs != 86 {
		t.Fatalf("the seeded corpus fills %d segments, want 86", segs)
	}
	allocs := testing.AllocsPerRun(5, func() {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	if perSeg := allocs / float64(segs); perSeg > 24 {
		t.Fatalf("Open makes %.0f allocations, %.1f per segment, want at most 24", allocs, perSeg)
	}
}

// FuzzIndexOpen throws arbitrary bytes at openIndex, as they are and
// behind a valid checksum (so the structural checks are reached, not
// only the CRC). openIndex must reject exactly what the eager decode
// rejects, with the same error, and on bytes both accept every lookup
// must decode without panic to the eager decode's posting.
func FuzzIndexOpen(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{1, 3, 40, 4100} {
		idx := buildSegment(lazyIndexDocs(rng, n)).idx
		if n < 100 {
			f.Add(idx)
		}
		f.Add(idx[:len(idx)-4])
	}
	f.Add(buildSegment(testDocs(5, "fz-")).idx)
	f.Add([]byte(idxMagic))
	f.Add(make([]byte, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexMatchesOracle(t, data)
		checkIndexMatchesOracle(t, binary.LittleEndian.AppendUint32(slices.Clip(data), crc32.Checksum(data, castagnoli)))
	})
}
