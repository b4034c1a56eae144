package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/testutil"
)

// indexTokens is the reference for the index terms of one document:
// the text's word tokens plus dataset/platform/domain field terms, all
// ASCII-lower-cased as query terms are. The tests that check Lookup
// against a naive scan use it, and TestIndexBuilderMatchesReference
// checks indexBuilder.add against it.
func indexTokens(d *corpus.Document, emit func(string)) {
	tokenizeText(d.Text, emit)
	field := func(term string) { emit(string(appendFoldedToken(nil, term))) }
	field("dataset:" + string(d.Dataset))
	field("platform:" + string(d.Platform))
	if d.Domain != "" {
		field("domain:" + d.Domain)
	}
}

// tokenizeText splits text into lowercase tokens: ASCII letters/digits
// fold and join, any non-ASCII byte joins as-is (UTF-8 sequences stay
// whole), everything else separates.
func tokenizeText(text string, emit func(string)) {
	start := -1
	var buf []byte
	flush := func(end int) {
		if start < 0 {
			return
		}
		buf = appendFoldedToken(buf[:0], text[start:end])
		emit(string(buf))
		start = -1
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		isTok := c >= 0x80 || c == '_' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if isTok && start < 0 {
			start = i
		} else if !isTok {
			flush(i)
		}
	}
	flush(len(text))
}

// TestIndexBuilderMatchesReference builds one segment's postings with
// indexBuilder and with the reference tokenizer plus a per-document set,
// and requires the same terms with the same ordinals.
func TestIndexBuilderMatchesReference(t *testing.T) {
	docs := testDocs(40, "ref-")
	docs = append(docs,
		corpus.Document{Text: "MiXeD case_words, café CAFÉ  x2 x2 X2!!", Dataset: "boards", Platform: "gab"},
		corpus.Document{Text: "", Dataset: "", Platform: ""},
		corpus.Document{Text: "\xff\xfe broken utf8 __ 9", Domain: "Upper.Example"},
		corpus.Document{Text: "x", Dataset: "Boards", Platform: "GAB", Domain: "CAFÉ.Example"})
	ib := newIndexBuilder()
	want := map[string][]uint32{}
	for i := range docs {
		ib.add(&docs[i], uint64(i))
		seen := map[string]bool{}
		indexTokens(&docs[i], func(tok string) {
			if !seen[tok] {
				seen[tok] = true
				want[tok] = append(want[tok], uint32(i))
			}
		})
	}
	if len(ib.posting) != len(want) {
		t.Fatalf("builder has %d terms, reference %d", len(ib.posting), len(want))
	}
	for tok, ords := range want {
		bm := ib.posting[tok]
		if bm == nil {
			t.Fatalf("builder lacks term %q", tok)
		}
		if got := values(bm); !slices.Equal(got, ords) {
			t.Fatalf("term %q: ordinals %v, want %v", tok, got, ords)
		}
	}
}

// TestFieldTermsMatchAnyCase: a document whose domain (or dataset or
// platform) has upper-case letters is found by its field term in any
// case, as every query term is folded before the lookup.
func TestFieldTermsMatchAnyCase(t *testing.T) {
	s := buildStore(t, t.TempDir(), []corpus.Document{
		{ID: "lower", Text: "a", Dataset: corpus.Pastes, Platform: corpus.PlatformPastes, Domain: "paste.example"},
		{ID: "upper", Text: "b", Dataset: "Pastes", Platform: "Pastes", Domain: "Paste.Example"},
	})
	defer s.Close()
	for _, term := range []string{"domain:Paste.Example", "domain:paste.example", "DOMAIN:PASTE.EXAMPLE", "dataset:PASTES", "platform:pastes"} {
		var ids []string
		if err := s.LookupDocs(term, func(d *corpus.Document, _ DocRef) error {
			ids = append(ids, d.ID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []string{"lower", "upper"}; !slices.Equal(ids, want) {
			t.Fatalf("LookupDocs(%q) = %v, want %v", term, ids, want)
		}
		q, err := ParseQuery(term + ",b")
		if err != nil {
			t.Fatal(err)
		}
		ids = ids[:0]
		if err := s.LookupQueryDocs(q, func(d *corpus.Document, _ DocRef) error {
			ids = append(ids, d.ID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []string{"upper"}; !slices.Equal(ids, want) {
			t.Fatalf("LookupQueryDocs(%q) = %v, want %v", q, ids, want)
		}
	}
}

// TestEncodeReturnsDecodedIndex: the index a commit publishes is the
// one Open builds from the bytes the commit wrote, over random batches
// with mixed-case text and field terms and postings dense enough to
// need bitmap containers.
func TestEncodeReturnsDecodedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(300)
		if round%10 == 0 {
			n = 4096 + rng.Intn(3000) // "mass" outgrows an array container
		}
		si, err := s.Append(lazyIndexDocs(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		_, indexes, err := s.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		published := indexes[len(indexes)-1]
		written, err := os.ReadFile(filepath.Join(dir, si.Name+idxSuffix))
		if err != nil {
			t.Fatal(err)
		}
		opened, err := openIndex(written)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(published, opened) {
			t.Fatalf("round %d: the published index differs from the one Open builds from its file", round)
		}
		if len(published.offsets) != n {
			t.Fatalf("round %d: published %d offsets for %d docs", round, len(published.offsets), n)
		}
	}
}

// TestIndexBuilderAddAllocs pins the builder's steady state: indexing a
// document whose terms are all in the segment already allocates
// nothing once the offsets table has room.
func TestIndexBuilderAddAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := corpus.Document{
		Text:    "We should MASS report his channel, mass report it now: café ça 42",
		Dataset: corpus.Boards, Platform: corpus.PlatformBoards, Domain: "board-16.example",
	}
	ib := newIndexBuilder()
	ib.add(&d, 0)
	ib.add(&d, 1)
	allocs := testing.AllocsPerRun(100, func() {
		ib.offsets = ib.offsets[:1]
		ib.add(&d, 1)
	})
	if allocs != 0 {
		t.Fatalf("indexBuilder.add allocates %v times on known terms, want 0", allocs)
	}
}

// TestBitmapAddOutOfOrder checks the append fast path keeps the array
// sorted and duplicate-free when adds arrive out of order.
func TestBitmapAddOutOfOrder(t *testing.T) {
	var b Bitmap
	for _, v := range []uint32{5, 9, 9, 2, 7, 9, 1, 5, 12, 0, 70000, 65536, 3} {
		b.Add(v)
	}
	want := []uint32{0, 1, 2, 3, 5, 7, 9, 12, 65536, 70000}
	if got := values(&b); !slices.Equal(got, want) {
		t.Fatalf("values %v, want %v", got, want)
	}
}
