package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"harassrepro/internal/randx"
)

func TestBasicTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", ",", "world", "!"}},
		{"", nil},
		{"   ", nil},
		{"a.b", []string{"a", ".", "b"}},
		{"e-mail @user #tag", []string{"e", "-", "mail", "@", "user", "#", "tag"}},
		{"MiXeD CaSe", []string{"mixed", "case"}},
		{"tabs\tand\nnewlines", []string{"tabs", "and", "newlines"}},
		{"don't", []string{"don", "'", "t"}},
	}
	for _, c := range cases {
		if got := BasicTokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("BasicTokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBasicTokenizeNeverEmptyTokens(t *testing.T) {
	err := quick.Check(func(s string) bool {
		for _, tok := range BasicTokenize(s) {
			if tok == "" {
				return false
			}
			if strings.ToLower(tok) != tok {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrainAndTokenizeRoundTrip(t *testing.T) {
	corpus := []string{
		"harassment harassing harassed harass",
		"report reporting reported reports",
		"the harasser keeps harassing and reporting",
		"mass reporting of harassment reports",
	}
	v := Train(corpus, TrainerConfig{VocabSize: 200})
	if v.Size() == 0 {
		t.Fatal("empty vocabulary")
	}
	tok := NewTokenizer(v)
	pieces := tok.Tokenize("harassment reporting")
	if len(pieces) == 0 {
		t.Fatal("no pieces")
	}
	// Reassembling pieces should reconstruct the input words.
	var rebuilt strings.Builder
	for _, p := range pieces {
		if p == UnknownToken {
			t.Fatalf("in-corpus word tokenized to UNK: %v", pieces)
		}
		rebuilt.WriteString(strings.TrimPrefix(p, ContinuationPrefix))
	}
	if rebuilt.String() != "harassmentreporting" {
		t.Errorf("round trip got %q from %v", rebuilt.String(), pieces)
	}
}

func TestTrainLearnsSubwords(t *testing.T) {
	// Very frequent pair should merge into a multi-char piece.
	corpus := make([]string, 50)
	for i := range corpus {
		corpus[i] = "doxing doxed doxes dox"
	}
	v := Train(corpus, TrainerConfig{VocabSize: 100})
	multi := 0
	for _, p := range v.Pieces() {
		if len(strings.TrimPrefix(p, ContinuationPrefix)) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("training produced no multi-character pieces")
	}
}

func TestTrainDeterministic(t *testing.T) {
	corpus := []string{"alpha beta gamma delta", "beta gamma", "alpha alpha gamma"}
	v1 := Train(corpus, TrainerConfig{VocabSize: 50})
	v2 := Train(corpus, TrainerConfig{VocabSize: 50})
	if !reflect.DeepEqual(v1.Pieces(), v2.Pieces()) {
		t.Error("training is not deterministic")
	}
}

func TestTokenizeUnknownWord(t *testing.T) {
	v := NewVocab([]string{"a", "b", "##b"})
	tok := NewTokenizer(v)
	got := tok.Tokenize("abz")
	if !reflect.DeepEqual(got, []string{UnknownToken}) {
		t.Errorf("unsegmentable word = %v, want [UNK]", got)
	}
	got = tok.Tokenize("ab")
	if !reflect.DeepEqual(got, []string{"a", "##b"}) {
		t.Errorf("ab = %v", got)
	}
}

func TestTokenizeGreedyLongestMatch(t *testing.T) {
	v := NewVocab([]string{"un", "unhappy", "##happy", "##h", "##appy"})
	tok := NewTokenizer(v)
	got := tok.Tokenize("unhappy")
	if !reflect.DeepEqual(got, []string{"unhappy"}) {
		t.Errorf("greedy match = %v, want [unhappy]", got)
	}
}

func TestTokenizeVeryLongWord(t *testing.T) {
	v := NewVocab([]string{"a"})
	tok := NewTokenizer(v)
	long := strings.Repeat("a", 500)
	got := tok.Tokenize(long)
	if !reflect.DeepEqual(got, []string{UnknownToken}) {
		t.Errorf("very long word = %v, want [UNK]", got)
	}
}

func makeTokens(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strings.Repeat("t", 1+i%3)
	}
	return out
}

func TestSpansShortDocument(t *testing.T) {
	rng := randx.New(1)
	toks := makeTokens(10)
	for _, s := range []SpanStrategy{SpanRandomNoOverlap, SpanBeginEnd, SpanOverlapping, SpanRandomLength} {
		spans := Spans(toks, 128, 4, s, rng)
		if len(spans) != 1 || len(spans[0]) != 10 {
			t.Errorf("%v: short doc spans = %d", s, len(spans))
		}
	}
}

func TestSpansRandomNoOverlapCoversDistinctAreas(t *testing.T) {
	rng := randx.New(2)
	// 1000 tokens, maxLen 100 -> 10 chunks; request 5 spans.
	toks := make([]string, 1000)
	for i := range toks {
		toks[i] = string(rune('a' + i%26))
	}
	spans := Spans(toks, 100, 5, SpanRandomNoOverlap, rng)
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	total := 0
	for _, sp := range spans {
		if len(sp) > 100 {
			t.Errorf("span too long: %d", len(sp))
		}
		total += len(sp)
	}
	if total > 500 {
		t.Errorf("overlapping content: total span tokens %d", total)
	}
}

func TestSpansBeginEnd(t *testing.T) {
	rng := randx.New(3)
	toks := make([]string, 300)
	for i := range toks {
		toks[i] = string(rune('a' + i%26))
	}
	spans := Spans(toks, 100, 2, SpanBeginEnd, rng)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0][0] != toks[0] || spans[1][99] != toks[299] {
		t.Error("begin-end spans not anchored at document boundaries")
	}
	one := Spans(toks, 100, 1, SpanBeginEnd, rng)
	if len(one) != 1 {
		t.Errorf("maxSpans=1 returned %d spans", len(one))
	}
}

func TestSpansOverlapping(t *testing.T) {
	rng := randx.New(4)
	toks := makeTokens(250)
	spans := Spans(toks, 100, 10, SpanOverlapping, rng)
	// Starts at 0, 50, 100, 150; the span at 150 reaches the end (250),
	// completing coverage -> 4 spans with 50% overlap.
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if len(spans[3]) != 100 {
		t.Errorf("tail span length = %d, want 100", len(spans[3]))
	}
}

func TestSpansRandomLengthBounds(t *testing.T) {
	rng := randx.New(5)
	toks := makeTokens(1000)
	spans := Spans(toks, 100, 20, SpanRandomLength, rng)
	if len(spans) != 20 {
		t.Fatalf("got %d spans", len(spans))
	}
	for _, sp := range spans {
		if len(sp) < 50 || len(sp) > 100 {
			t.Errorf("random-length span length %d outside [50,100]", len(sp))
		}
	}
}

func TestSpansPropertyNoOverlapWithinBudget(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, maxLenRaw uint16) bool {
		n := 1 + int(nRaw%2000)
		maxLen := 1 + int(maxLenRaw%300)
		rng := randx.New(seed)
		toks := makeTokens(n)
		spans := Spans(toks, maxLen, 3, SpanRandomNoOverlap, rng)
		if len(spans) == 0 || len(spans) > 3 {
			// Short docs return one span; long docs must respect maxSpans.
			return false
		}
		for _, sp := range spans {
			if n > maxLen && len(sp) > maxLen {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpanStrategyString(t *testing.T) {
	names := map[SpanStrategy]string{
		SpanRandomNoOverlap: "random-no-overlap",
		SpanBeginEnd:        "begin-end",
		SpanOverlapping:     "overlapping",
		SpanRandomLength:    "random-length",
		SpanStrategy(99):    "unknown",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", s, got, want)
		}
	}
}

func BenchmarkTrain(b *testing.B) {
	corpus := make([]string, 100)
	for i := range corpus {
		corpus[i] = "the quick brown fox jumps over the lazy dog while reporting harassment online"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(corpus, TrainerConfig{VocabSize: 500})
	}
}

func BenchmarkTokenize(b *testing.B) {
	corpus := []string{"mass reporting of harassment and doxing on image boards"}
	v := Train(corpus, TrainerConfig{VocabSize: 200})
	tok := NewTokenizer(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Tokenize("mass reporting of harassment and doxing on image boards")
	}
}
