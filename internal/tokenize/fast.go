package tokenize

// The zero-allocation scoring fast path. The legacy entry points
// (BasicTokenize, Tokenizer.Tokenize) pay one full strings.ToLower copy
// plus a strings.Builder per word and a fresh []string per document —
// acceptable for training, ruinous for a scoring loop that exists to
// process hundreds of millions of documents (Table 1). BasicTokenizer
// and Session keep per-goroutine scratch buffers so that steady-state
// tokenization performs no heap allocations at all. BasicTokenizer
// lower-cases and splits the input in a single pass into a reusable
// byte arena and hands out views into it. Session segments ASCII text
// in one fused pass with no copy at all — lowering, splitting, a
// whole-word table probe and, only for words that are not themselves a
// piece, a trie walk — and emits interned vocabulary strings; other
// text takes the BasicTokenizer's arena first.
//
// Equivalence with the legacy implementations is load-bearing and
// covered by golden and differential fuzz tests: for every input,
// BasicTokenizer.Tokenize yields exactly the tokens of legacy
// BasicTokenize, and Session.Tokenize exactly the pieces of legacy
// Tokenizer.Tokenize.

import (
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// BasicTokenizer is a reusable basic tokenizer with scratch buffers.
// It performs the same lower-casing and punctuation splitting as
// BasicTokenize in a single pass over the input, without the ToLower
// copy or per-word Builder churn.
//
// Not safe for concurrent use. The returned slice and its strings alias
// the tokenizer's internal arena and are only valid until the next
// Tokenize call; callers that retain tokens must copy them.
type BasicTokenizer struct {
	buf   []byte // lower-cased bytes of the current document
	spans []span // token boundaries within buf
	toks  []string
}

type span struct{ start, end int32 }

// Character classes for the ASCII fast path.
const (
	classWord byte = iota
	classSpace
	classPunct
)

// asciiClass caches the word/space/punctuation decision for every ASCII
// byte. It is built from the same unicode predicates the rune path
// uses, so the two paths cannot disagree.
var asciiClass [128]byte

// lowerASCII maps 'A'-'Z' to 'a'-'z' and every other byte to itself, so
// applying it to a lowered word's UTF-8 bytes changes nothing.
var lowerASCII [256]byte

func init() {
	for c := range lowerASCII {
		lowerASCII[c] = byte(c)
		if 'A' <= c && c <= 'Z' {
			lowerASCII[c] += 'a' - 'A'
		}
	}
	for c := range asciiClass {
		r := unicode.ToLower(rune(c))
		switch {
		case unicode.IsSpace(r):
			asciiClass[c] = classSpace
		case unicode.IsPunct(r) || unicode.IsSymbol(r):
			asciiClass[c] = classPunct
		default:
			asciiClass[c] = classWord
		}
	}
}

// Tokenize lower-cases text and splits it into words on whitespace and
// punctuation, with punctuation marks as their own tokens — identical
// output to BasicTokenize.
func (bt *BasicTokenizer) Tokenize(text string) []string {
	bt.buf = bt.buf[:0]
	bt.spans = bt.spans[:0]
	wordStart := int32(-1)
	flush := func() {
		if wordStart >= 0 {
			bt.spans = append(bt.spans, span{wordStart, int32(len(bt.buf))})
			wordStart = -1
		}
	}
	// ASCII bytes (the overwhelming majority of chat text) take a
	// table-driven byte path; everything else decodes one rune at a
	// time. DecodeRuneInString yields one RuneError per invalid byte —
	// exactly what the legacy path sees after strings.ToLower has
	// rewritten invalid bytes to U+FFFD. Classification happens on the
	// lowered rune, as in the legacy code.
	for i := 0; i < len(text); {
		c := text[i]
		if c < utf8.RuneSelf {
			c = lowerASCII[c]
			switch asciiClass[c] {
			case classSpace:
				flush()
			case classPunct:
				flush()
				start := int32(len(bt.buf))
				bt.buf = append(bt.buf, c)
				bt.spans = append(bt.spans, span{start, int32(len(bt.buf))})
			default:
				if wordStart < 0 {
					wordStart = int32(len(bt.buf))
				}
				bt.buf = append(bt.buf, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		r = unicode.ToLower(r)
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsPunct(r) || unicode.IsSymbol(r):
			flush()
			start := int32(len(bt.buf))
			bt.buf = utf8.AppendRune(bt.buf, r)
			bt.spans = append(bt.spans, span{start, int32(len(bt.buf))})
		default:
			if wordStart < 0 {
				wordStart = int32(len(bt.buf))
			}
			bt.buf = utf8.AppendRune(bt.buf, r)
		}
	}
	flush()

	// Materialise token views only after the arena has reached its final
	// size, so every view points into the same backing array.
	bt.toks = bt.toks[:0]
	for _, sp := range bt.spans {
		bt.toks = append(bt.toks, viewString(bt.buf[sp.start:sp.end]))
	}
	return bt.toks
}

// viewString returns a string sharing b's storage. The caller owns the
// aliasing contract: the bytes must not be mutated while the string is
// live.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Session carries the per-goroutine scratch state for WordPiece
// segmentation with a shared Tokenizer. Steady-state Tokenize calls
// allocate nothing: ASCII text is lowered, split and segmented in one
// pass over the input with no copy, pieces are found by a whole-word
// table probe or a walk of the tokenizer's shared vocabulary trie, and
// emitted pieces are the vocabulary's interned strings (stable across
// calls). Other text goes through the embedded BasicTokenizer's arena.
//
// A Session is not safe for concurrent use; the returned token slice is
// reused by the next Tokenize call, but its piece strings are stable.
type Session struct {
	t     *Tokenizer
	trie  *pieceTrie
	basic BasicTokenizer
	out   []string
}

// NewSession returns a Session bound to the tokenizer's vocabulary.
func (t *Tokenizer) NewSession() *Session {
	return &Session{t: t, trie: t.pieceTrie()}
}

// Tokenize segments text into word pieces — identical output to
// Tokenizer.Tokenize. The returned slice is valid until the next call;
// its elements (interned vocabulary pieces or UnknownToken) are stable.
//
// ASCII text (nearly all chat text) takes one fused loop: it finds each
// word's end while folding its lowered bytes into a hash, and a word
// the whole-word table holds is its own only piece, because greedy
// longest-match takes the whole word when it can. Other words walk the
// trie over the text's own bytes, lowering on the fly. The first
// non-ASCII byte restarts the document on the rune path.
func (s *Session) Tokenize(text string) []string {
	s.out = s.out[:0]
	for i := 0; i < len(text); {
		c := text[i]
		if c >= utf8.RuneSelf {
			return s.tokenizeRunes(text)
		}
		class := asciiClass[c]
		if class == classSpace {
			i++
			continue
		}
		// A punctuation byte is a one-byte word.
		start, h := i, (fnv32Offset^uint32(lowerASCII[c]))*fnv32Prime
		for i++; class == classWord && i < len(text); i++ {
			// A non-ASCII byte ends the word here and restarts the
			// document at the top of the loop.
			c = text[i]
			if c >= utf8.RuneSelf || asciiClass[c] != classWord {
				break
			}
			h = (h ^ uint32(lowerASCII[c])) * fnv32Prime
		}
		word := text[start:i]
		if len(word) > s.t.maxWordChars { // an ASCII word's bytes are its runes
			s.out = append(s.out, UnknownToken)
		} else if piece, ok := s.trie.whole(word, h); ok {
			s.out = append(s.out, piece)
		} else {
			s.appendWordPieces(word)
		}
	}
	return s.out
}

// tokenizeRunes is Tokenize for text that is not all ASCII: the
// BasicTokenizer splits the lowered runes, then each word is segmented.
func (s *Session) tokenizeRunes(text string) []string {
	s.out = s.out[:0]
	for _, word := range s.basic.Tokenize(text) {
		if utf8.RuneCountInString(word) > s.t.maxWordChars {
			s.out = append(s.out, UnknownToken)
		} else {
			s.appendWordPieces(word)
		}
	}
	return s.out
}

// appendWordPieces segments one word with greedy longest-match-first,
// as the legacy per-word []rune search did: each piece is the longest
// vocabulary entry (with the "##" prefix after the first) that the rest
// of the lowered word starts with, found by one trie walk.
func (s *Session) appendWordPieces(word string) {
	outStart := len(s.out)
	for start := 0; start < len(word); {
		piece, n, ok := s.trie.longest(word[start:], start > 0)
		if !ok {
			s.out = append(s.out[:outStart], UnknownToken)
			return
		}
		s.out = append(s.out, piece)
		start += n
	}
}
