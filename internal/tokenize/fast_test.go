package tokenize

// Golden equivalence and allocation-regression tests for the
// zero-allocation fast path. referenceBasicTokenize and
// referenceWordPiece are verbatim copies of the pre-optimisation
// implementations; the fast path must match them byte for byte on every
// input, including adversarial Unicode.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"harassrepro/internal/testutil"
)

// referenceBasicTokenize is the legacy BasicTokenize implementation
// (full ToLower copy + per-word Builder), kept as the equivalence oracle.
func referenceBasicTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsPunct(r) || unicode.IsSymbol(r):
			flush()
			tokens = append(tokens, string(r))
		default:
			b.WriteRune(r)
		}
	}
	flush()
	return tokens
}

// referenceWordPiece is the legacy Tokenizer.Tokenize implementation
// ([]rune conversion + string concatenation per candidate piece).
func referenceWordPiece(t *Tokenizer, text string) []string {
	tokenizeWord := func(word string) []string {
		runes := []rune(word)
		if len(runes) > t.maxWordChars {
			return []string{UnknownToken}
		}
		var pieces []string
		start := 0
		for start < len(runes) {
			end := len(runes)
			var cur string
			ok := false
			for end > start {
				piece := string(runes[start:end])
				if start > 0 {
					piece = ContinuationPrefix + piece
				}
				if t.vocab.Contains(piece) {
					cur = piece
					ok = true
					break
				}
				end--
			}
			if !ok {
				return []string{UnknownToken}
			}
			pieces = append(pieces, cur)
			start = end
		}
		return pieces
	}
	var out []string
	for _, word := range referenceBasicTokenize(text) {
		out = append(out, tokenizeWord(word)...)
	}
	return out
}

// goldenTexts exercises ASCII prose, punctuation runs, multi-byte
// runes, case-fold specials, invalid UTF-8 and degenerate shapes.
var goldenTexts = []string{
	"",
	"   \t\n  ",
	"Hello, World!",
	"we need to mass-report his twitter and youtube, spread the word",
	"DOX: Jane Roe / Address: 99 Cedar Lane, Riverton, TX, 75001 / Phone: (212) 555-0188 / fb: jane.roe.42",
	"MiXeD CaSe WITH Ünïcode and 日本語 mixed in",
	"emoji \U0001F600 and symbols ©®™ £100 ±5",
	"İstanbul STRASSE ﬂuent ſtreet Kelvin", // case-fold special points
	"a\xffb\xfe invalid \xc3(",             // invalid UTF-8 bytes
	strings.Repeat("long-word-", 40) + strings.Repeat("x", 200),
	"don't stop: e-mail @user #tag 100%",
	"ßẞ sharp-s pair",
}

func TestBasicTokenizerMatchesReference(t *testing.T) {
	var bt BasicTokenizer
	for _, text := range goldenTexts {
		want := referenceBasicTokenize(text)
		got := bt.Tokenize(text)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q): %d tokens, want %d\ngot  %q\nwant %q", text, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", text, i, got[i], want[i])
			}
		}
		// The package-level wrapper must agree too.
		if wrap := BasicTokenize(text); !equalTokens(wrap, want) {
			t.Errorf("BasicTokenize(%q) = %q, want %q", text, wrap, want)
		}
	}
}

func TestBasicTokenizerMatchesReferenceQuick(t *testing.T) {
	var bt BasicTokenizer
	err := quick.Check(func(s string) bool {
		return equalTokens(bt.Tokenize(s), referenceBasicTokenize(s))
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSessionMatchesReference(t *testing.T) {
	corpus := []string{
		"mass reporting of harassment and doxing on image boards",
		"the harasser keeps harassing and reporting",
		"report the stream, raid the channel, flood her mentions",
	}
	tok := NewTokenizer(Train(corpus, TrainerConfig{VocabSize: 300}))
	sess := tok.NewSession()
	for _, text := range append(goldenTexts, corpus...) {
		want := referenceWordPiece(tok, text)
		got := sess.Tokenize(text)
		if !equalTokens(got, want) {
			t.Errorf("Session.Tokenize(%q) = %q, want %q", text, got, want)
		}
		if wrap := tok.Tokenize(text); !equalTokens(wrap, want) {
			t.Errorf("Tokenizer.Tokenize(%q) = %q, want %q", text, wrap, want)
		}
	}
}

func TestSessionMatchesReferenceQuick(t *testing.T) {
	tok := NewTokenizer(NewVocab([]string{
		"a", "b", "c", "ab", "abc", "##a", "##b", "##c", "##bc", "x", "##x",
	}))
	sess := tok.NewSession()
	err := quick.Check(func(s string) bool {
		return equalTokens(sess.Tokenize(s), referenceWordPiece(tok, s))
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSessionMatchesReferenceEdgeVocab drives the trie walk against the
// rune-stepping reference on vocabularies it could get wrong: multi-byte
// pieces, pieces that are not valid UTF-8 (a byte-wise match would split
// a rune), "#" and "##" as pieces, a continuation piece that extends an
// initial one, and no continuation pieces at all.
func TestSessionMatchesReferenceEdgeVocab(t *testing.T) {
	vocabs := [][]string{
		{"a", "é", "##é", "日本", "##本", "日", "\xc3", "##\xa9", "\xff", "#", "##", "##a", "ab", "##b", "##ab"},
		{"a", "b", "ab", "é"},
		{"a", "\xc3", "##\xa9", "##a"}, // "é" is C3 A9: a byte walk over these would split it
	}
	alphabet := []string{"a", "b", "é", "日", "本", "#", " ", "\xff", "\xc3", "Ab"}
	rng := rand.New(rand.NewSource(1))
	for _, pieces := range vocabs {
		tok := NewTokenizer(NewVocab(pieces))
		sess := tok.NewSession()
		for i := 0; i < 3000; i++ {
			var sb strings.Builder
			for n := rng.Intn(12); n > 0; n-- {
				sb.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			text := sb.String()
			if got, want := sess.Tokenize(text), referenceWordPiece(tok, text); !equalTokens(got, want) {
				t.Fatalf("vocab %q: Session.Tokenize(%q) = %q, want %q", pieces, text, got, want)
			}
		}
	}
}

// TestSessionFusedPathEdges pins the one-pass ASCII path against the
// reference on the cases it handles by its own rules: a lowered word
// that is a whole piece, the byte-length cap at maxWordChars and one
// past it, punctuation outside the vocabulary, digits and control
// bytes (word bytes), and non-ASCII bytes first, last and mid-word,
// which restart the document on the rune path. One session runs every
// case in turn, so a restart must leave nothing behind.
func TestSessionFusedPathEdges(t *testing.T) {
	atCap, pastCap := strings.Repeat("x", 100), strings.Repeat("y", 101)
	tok := NewTokenizer(NewVocab([]string{
		"harass", "##ment", "raid", "Raid", "r", "##a", "##i", "##d",
		atCap, pastCap, "y", "##y", ",", "1", "##2", "\x00", "##\x01",
		"é", "##é", "caf",
	}))
	if tok.maxWordChars != len(atCap) {
		t.Fatalf("maxWordChars = %d, the cases assume %d", tok.maxWordChars, len(atCap))
	}
	sess := tok.NewSession()
	cases := []struct {
		text string
		want []string // nil: only the reference is checked
	}{
		{"HARASS", []string{"harass"}},
		{"Raid", []string{"raid"}},
		{"HARASSMENT raids", []string{"harass", "##ment", UnknownToken}},
		{atCap, []string{atCap}},
		{pastCap, []string{UnknownToken}},
		{"a " + strings.ToUpper(pastCap) + " raid", nil},
		{"raid! raid, raid", []string{"raid", UnknownToken, "raid", ",", "raid"}},
		{"12 1 122 21", nil},
		{"\x00\x01 \x00 raid\x7f \x1f", nil},
		{"é raid", []string{"é", "raid"}},
		{"raid é", []string{"raid", "é"}},
		{"RAéID café", nil},
		{"raid\xff raid", nil},
		{"HARASS", []string{"harass"}}, // back on the fused path
	}
	for _, c := range cases {
		want := referenceWordPiece(tok, c.text)
		if c.want != nil && !equalTokens(want, c.want) {
			t.Fatalf("reference(%q) = %q, the case expects %q", c.text, want, c.want)
		}
		if got := sess.Tokenize(c.text); !equalTokens(got, want) {
			t.Errorf("Session.Tokenize(%q) = %q, want %q", c.text, got, want)
		}
		if got := tok.Tokenize(c.text); !equalTokens(got, want) {
			t.Errorf("Tokenizer.Tokenize(%q) = %q, want %q", c.text, got, want)
		}
	}
}

// FuzzSessionMatchesReference is the differential fuzz target for
// WordPiece segmentation: over a vocabulary of the input's
// newline-separated pieces (so "##" pieces, mixed case, non-ASCII and
// invalid UTF-8 all come from the fuzzer), a Session reused across
// inputs and Tokenizer.Tokenize must both give referenceWordPiece's
// pieces for the text.
func FuzzSessionMatchesReference(f *testing.F) {
	edgeVocab := "harass\n##ment\nraid\nRaid\n" + strings.Repeat("x", 100) + "\n" +
		strings.Repeat("y", 101) + "\n,\n1\n##2\né\n##é\n日本\n##本\n#\n##\n\xc3\n##\xa9\n\x00"
	for _, text := range goldenTexts {
		f.Add(edgeVocab, text)
	}
	for _, text := range []string{
		"HARASS Raid HARASSMENT", strings.Repeat("x", 100), strings.Repeat("Y", 101),
		"raid! ## #", "é raid", "raid é", "raéid", "raid\xff", "12 122 \x00\x01\x1f",
	} {
		f.Add(edgeVocab, text)
	}
	f.Add("a\nb\nab\nabc\n##a\n##b\n##c\n##bc", "abcab cab, ABC")
	sessions := map[string]*Session{}
	f.Fuzz(func(t *testing.T, vocab, text string) {
		sess := sessions[vocab]
		if sess == nil {
			if len(sessions) >= 16 { // bound the memory of a long run
				clear(sessions)
			}
			sess = NewTokenizer(NewVocab(strings.Split(vocab, "\n"))).NewSession()
			sessions[vocab] = sess
		}
		want := referenceWordPiece(sess.t, text)
		if got := sess.Tokenize(text); !equalTokens(got, want) {
			t.Errorf("Session.Tokenize(%q) = %q, want %q", text, got, want)
		}
		if got := sess.t.Tokenize(text); !equalTokens(got, want) {
			t.Errorf("Tokenizer.Tokenize(%q) = %q, want %q", text, got, want)
		}
	})
}

// TestSessionPiecesStableAcrossCalls verifies the documented contract:
// the token slice is reused, but emitted piece strings stay valid.
func TestSessionPiecesStableAcrossCalls(t *testing.T) {
	tok := NewTokenizer(NewVocab([]string{"dox", "##ing", "raid"}))
	sess := tok.NewSession()
	first := append([]string(nil), sess.Tokenize("doxing")...)
	sess.Tokenize("raid raid raid")
	if !reflect.DeepEqual(first, []string{"dox", "##ing"}) {
		t.Fatalf("pieces clobbered by next call: %q", first)
	}
}

// TestBasicTokenizerZeroAllocs is the allocation-regression gate for
// the basic fast path: steady-state tokenization must not allocate.
func TestBasicTokenizerZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var bt BasicTokenizer
	text := "we need to Mass-Report his twitter AND youtube, spread the word!"
	bt.Tokenize(text) // warm the arena
	if n := testing.AllocsPerRun(100, func() {
		bt.Tokenize(text)
	}); n != 0 {
		t.Errorf("BasicTokenizer.Tokenize allocates %v per op, want 0", n)
	}
}

// TestSessionZeroAllocs is the allocation-regression gate for the
// WordPiece fast path.
func TestSessionZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	corpus := []string{"mass reporting of harassment and doxing on image boards"}
	tok := NewTokenizer(Train(corpus, TrainerConfig{VocabSize: 200}))
	sess := tok.NewSession()
	text := "mass reporting of harassment and doxing on image boards"
	sess.Tokenize(text) // warm the scratch
	if n := testing.AllocsPerRun(100, func() {
		sess.Tokenize(text)
	}); n != 0 {
		t.Errorf("Session.Tokenize allocates %v per op, want 0", n)
	}
}

func equalTokens(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkBasicTokenizeLegacyWrapper(b *testing.B) {
	b.ReportAllocs()
	text := "we need to mass-report his twitter and youtube, spread the word"
	for i := 0; i < b.N; i++ {
		BasicTokenize(text)
	}
}

func BenchmarkBasicTokenizerReuse(b *testing.B) {
	b.ReportAllocs()
	var bt BasicTokenizer
	text := "we need to mass-report his twitter and youtube, spread the word"
	for i := 0; i < b.N; i++ {
		bt.Tokenize(text)
	}
}

func BenchmarkSessionTokenize(b *testing.B) {
	corpus := []string{"mass reporting of harassment and doxing on image boards"}
	tok := NewTokenizer(Train(corpus, TrainerConfig{VocabSize: 200}))
	sess := tok.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Tokenize("mass reporting of harassment and doxing on image boards")
	}
}
