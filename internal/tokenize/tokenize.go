// Package tokenize implements the text segmentation stack the paper's
// classifiers are built on: punctuation splitting into basic tokens, a
// trainable WordPiece sub-word vocabulary (the segmentation algorithm
// used by BERT/distilBERT), and the long-document span strategies from
// §5.2, including the paper's chosen default of random spanning without
// overlap.
package tokenize

import (
	"sort"
	"sync"

	"harassrepro/internal/randx"
)

// UnknownToken is the token emitted for words that cannot be segmented
// with the trained vocabulary.
const UnknownToken = "[UNK]"

// ContinuationPrefix marks non-initial word pieces, as in BERT's
// WordPiece ("harass" -> "harass", "##ment").
const ContinuationPrefix = "##"

// BasicTokenize lower-cases text and splits it into words on whitespace
// and punctuation; punctuation marks become their own tokens
// ("punctuation splitting" in §5.2).
//
// This is the convenience wrapper over BasicTokenizer: the returned
// tokens are independent of any reusable scratch. Scoring hot paths
// should hold a BasicTokenizer (or a Session) instead.
func BasicTokenize(text string) []string {
	var bt BasicTokenizer
	toks := bt.Tokenize(text)
	if len(toks) == 0 {
		return nil
	}
	// bt is single-use, so returning its arena-backed views is safe: the
	// arena is never overwritten and stays live for as long as the tokens.
	return toks
}

// Vocab is a trained WordPiece vocabulary. Pieces are stored as their
// own canonical strings so the segmenter can hand out an interned piece
// that is stable across calls — the property the zero-allocation
// Session path relies on to emit tokens without copying.
type Vocab struct {
	pieces map[string]string
}

// NewVocab builds a Vocab directly from a list of pieces. Continuation
// pieces must carry the "##" prefix.
func NewVocab(pieces []string) *Vocab {
	m := make(map[string]string, len(pieces))
	for _, p := range pieces {
		m[p] = p
	}
	return &Vocab{pieces: m}
}

// Size returns the number of pieces in the vocabulary.
func (v *Vocab) Size() int { return len(v.pieces) }

// Contains reports whether piece is in the vocabulary.
func (v *Vocab) Contains(piece string) bool {
	_, ok := v.pieces[piece]
	return ok
}

// Pieces returns the vocabulary contents in sorted order.
func (v *Vocab) Pieces() []string {
	out := make([]string, 0, len(v.pieces))
	for p := range v.pieces {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TrainerConfig controls WordPiece vocabulary training.
type TrainerConfig struct {
	// VocabSize is the target vocabulary size (including single
	// characters). Training stops when it is reached or no more merges
	// are possible.
	VocabSize int
	// MinPairFrequency is the minimum corpus frequency for a piece pair
	// to be eligible for merging. Defaults to 2.
	MinPairFrequency int
	// MaxWordLength truncates pathological words during training.
	// Defaults to 64.
	MaxWordLength int
}

func (c *TrainerConfig) fillDefaults() {
	if c.VocabSize <= 0 {
		c.VocabSize = 4096
	}
	if c.MinPairFrequency <= 0 {
		c.MinPairFrequency = 2
	}
	if c.MaxWordLength <= 0 {
		c.MaxWordLength = 64
	}
}

// Tokenizer segments text into word pieces with a trained vocabulary
// using greedy longest-match-first, as in BERT.
type Tokenizer struct {
	vocab        *Vocab
	maxWordChars int
	// trie is built on the first Session, not here, so loading a
	// detector costs no more than reading its files.
	trieOnce sync.Once
	trie     *pieceTrie
}

// NewTokenizer returns a Tokenizer over the given vocabulary.
func NewTokenizer(vocab *Vocab) *Tokenizer {
	return &Tokenizer{vocab: vocab, maxWordChars: 100}
}

// pieceTrie returns the vocabulary's trie, building it on first use.
func (t *Tokenizer) pieceTrie() *pieceTrie {
	t.trieOnce.Do(func() { t.trie = newPieceTrie(t.vocab, t.maxWordChars) })
	return t.trie
}

// Vocab returns the tokenizer's vocabulary (for persistence).
func (t *Tokenizer) Vocab() *Vocab { return t.vocab }

// Tokenize segments text into word pieces. Words that cannot be fully
// segmented become a single UnknownToken.
//
// This is the convenience wrapper over Session; scoring hot paths
// should hold a Session per goroutine instead.
func (t *Tokenizer) Tokenize(text string) []string {
	s := t.NewSession()
	toks := s.Tokenize(text)
	if len(toks) == 0 {
		return nil
	}
	// The session is single-use, so its output slice can be returned
	// directly; the piece strings are interned vocabulary entries.
	return toks
}

// SpanStrategy selects how documents longer than the model's maximum
// sequence length are reduced (§5.2). The paper evaluated four
// strategies and chose random spanning without overlap.
type SpanStrategy int

const (
	// SpanRandomNoOverlap takes non-overlapping spans starting at random
	// offsets covering distinct areas of the document — the paper's
	// chosen strategy ("random spanning without overlap ... ensured that
	// we had spans of text from all areas of the input document").
	SpanRandomNoOverlap SpanStrategy = iota
	// SpanBeginEnd takes one span from the beginning and one from the
	// end of the document.
	SpanBeginEnd
	// SpanOverlapping takes spans with 50% overlap during splitting.
	SpanOverlapping
	// SpanRandomLength takes spans of random length (between half and
	// full max length) at random offsets.
	SpanRandomLength
)

// String returns the strategy name.
func (s SpanStrategy) String() string {
	switch s {
	case SpanRandomNoOverlap:
		return "random-no-overlap"
	case SpanBeginEnd:
		return "begin-end"
	case SpanOverlapping:
		return "overlapping"
	case SpanRandomLength:
		return "random-length"
	default:
		return "unknown"
	}
}

// Spans reduces tokens to at most maxSpans spans of at most maxLen tokens
// each, according to the strategy. Documents no longer than maxLen are
// returned as a single full span. rng is only consulted by the random
// strategies.
func Spans(tokens []string, maxLen, maxSpans int, strategy SpanStrategy, rng *randx.Source) [][]string {
	if maxLen <= 0 {
		maxLen = 512
	}
	if maxSpans <= 0 {
		maxSpans = 1
	}
	if len(tokens) <= maxLen {
		return [][]string{tokens}
	}
	switch strategy {
	case SpanBeginEnd:
		spans := [][]string{tokens[:maxLen]}
		if maxSpans > 1 {
			spans = append(spans, tokens[len(tokens)-maxLen:])
		}
		return spans
	case SpanOverlapping:
		var spans [][]string
		step := maxLen / 2
		if step == 0 {
			step = 1
		}
		for start := 0; start < len(tokens) && len(spans) < maxSpans; start += step {
			end := start + maxLen
			if end > len(tokens) {
				end = len(tokens)
			}
			spans = append(spans, tokens[start:end])
			if end == len(tokens) {
				break
			}
		}
		return spans
	case SpanRandomLength:
		var spans [][]string
		for i := 0; i < maxSpans; i++ {
			l := maxLen/2 + rng.Intn(maxLen/2+1)
			if l > len(tokens) {
				l = len(tokens)
			}
			start := rng.Intn(len(tokens) - l + 1)
			spans = append(spans, tokens[start:start+l])
		}
		return spans
	default: // SpanRandomNoOverlap
		return AppendRandomSpans(nil, tokens, maxLen, maxSpans, rng)
	}
}

// AppendRandomSpans appends the SpanRandomNoOverlap spans of a document
// longer than maxLen (maxLen, maxSpans > 0) to dst and returns the
// extended slice: the document is partitioned into ceil(n/maxLen)
// chunks, the chunk order is shuffled, and the first maxSpans are kept —
// random spans, no overlap, covering all areas of the document. The
// spans alias tokens; a caller that passes the previous call's result
// as dst[:0] samples without allocating.
func AppendRandomSpans(dst [][]string, tokens []string, maxLen, maxSpans int, rng *randx.Source) [][]string {
	first := len(dst)
	for start := 0; start < len(tokens); start += maxLen {
		dst = append(dst, tokens[start:min(start+maxLen, len(tokens))])
	}
	randx.Shuffle(rng, dst[first:])
	return dst[:min(len(dst), first+maxSpans)]
}

// Truncate limits tokens to at most maxLen tokens, used when a single
// fixed-length input is required.
func Truncate(tokens []string, maxLen int) []string {
	if maxLen > 0 && len(tokens) > maxLen {
		return tokens[:maxLen]
	}
	return tokens
}
