package store

import (
	"slices"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/testutil"
)

// indexTokens is the reference for the index terms of one document:
// the text's word tokens plus dataset/platform/domain field terms. The
// tests that check Lookup against a naive scan use it, and
// TestIndexBuilderMatchesReference checks indexBuilder.add against it.
func indexTokens(d *corpus.Document, emit func(string)) {
	tokenizeText(d.Text, emit)
	emit("dataset:" + string(d.Dataset))
	emit("platform:" + string(d.Platform))
	if d.Domain != "" {
		emit("domain:" + d.Domain)
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
		corpus.Document{Text: "\xff\xfe broken utf8 __ 9", Domain: "Upper.Example"})
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
