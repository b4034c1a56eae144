package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"

	"harassrepro/internal/corpus"
)

// The inverted index: one sidecar .idx file per segment, built at
// write time from the exact bytes being appended. It holds the
// record-offset table (ordinal → byte offset in the .seg file, the
// random-access path Doc uses) and a sorted token table mapping each
// token to a roaring-style posting bitmap over record ordinals.
//
//	header (16 bytes): magic "HRCSIDX1" | version uint32 | docCount uint32
//	offsets:           docCount × uint64 (record header offsets)
//	tokenCount uint32
//	per token, sorted:  uvarint len | bytes | bitmap (bitmap.go framing)
//	footer:            crc32c(everything above) uint32
//
// The trailing whole-file checksum makes a torn index from a crashed
// append detectable with one read; Open quarantines the segment pair
// rather than trusting a half-written token table.

// appendFoldedToken lower-cases ASCII letters into buf.
func appendFoldedToken(buf []byte, tok string) []byte {
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// NormalizeToken canonicalizes a query term the way the index writer
// canonicalized document tokens (ASCII lower-casing).
func NormalizeToken(tok string) string {
	return string(appendFoldedToken(nil, tok))
}

// segIndex is one segment's index: the verified bytes of its .idx file,
// never written after, with the offset table and token positions read
// out; each posting is decoded by its first lookup.
type segIndex struct {
	data    []byte
	offsets []uint64    // record ordinal → byte offset of record header
	terms   []indexTerm // in token order
}

// indexTerm is one token of a segIndex.
type indexTerm struct {
	lo, hi  int                    // the token is data[lo:hi]; its posting follows
	posting atomic.Pointer[Bitmap] // nil until a lookup decodes it
}

// lookup returns the posting bitmap for a (normalized) token. Racing
// first lookups may each decode it; all return the one published first.
func (ix *segIndex) lookup(tok string) *Bitmap {
	i := sort.Search(len(ix.terms), func(i int) bool {
		return string(ix.data[ix.terms[i].lo:ix.terms[i].hi]) >= tok
	})
	if i == len(ix.terms) || string(ix.data[ix.terms[i].lo:ix.terms[i].hi]) != tok {
		return nil
	}
	t := &ix.terms[i]
	if bm := t.posting.Load(); bm != nil {
		return bm
	}
	bm := &Bitmap{}
	if _, err := readBitmap(ix.data[t.hi:], bm); err != nil {
		panic("store: a posting verified at open fails to decode: " + err.Error())
	}
	t.posting.CompareAndSwap(nil, bm)
	return t.posting.Load()
}

// indexBuilder accumulates postings while a segment is written.
type indexBuilder struct {
	offsets []uint64
	posting map[string]*Bitmap
	term    []byte // the term being looked up, reused across terms
}

func newIndexBuilder() *indexBuilder {
	return &indexBuilder{posting: map[string]*Bitmap{}}
}

// add indexes one document at the given record offset. Its terms are
// the text's words plus dataset/platform/domain field terms (the latter
// make Lookup usable as a cheap metadata filter without a scan). A word
// is a run of ASCII letters, digits, '_' and bytes >= 0x80 (so UTF-8
// sequences stay whole), with ASCII letters lower-cased; every other
// byte separates words. Each term is folded into one reused buffer and
// looked up without a copy, so a term already in the segment costs no
// allocation; Bitmap.Add makes a repeat within the document a no-op.
func (ib *indexBuilder) add(d *corpus.Document, offset uint64) {
	ordinal := uint32(len(ib.offsets))
	ib.offsets = append(ib.offsets, offset)
	text := d.Text
	for i := 0; i < len(text); {
		if !isWordByte(text[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(text) && isWordByte(text[j]) {
			j++
		}
		ib.term = appendFoldedToken(ib.term[:0], text[i:j])
		ib.addTerm(ordinal)
		i = j
	}
	ib.addField("dataset:", string(d.Dataset), ordinal)
	ib.addField("platform:", string(d.Platform), ordinal)
	if d.Domain != "" {
		ib.addField("domain:", d.Domain, ordinal)
	}
}

// isWordByte reports whether c belongs to an index word.
func isWordByte(c byte) bool {
	return c >= 0x80 || c == '_' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// addField posts the field term prefix+value with value folded as
// query terms are (NormalizeToken), so "domain:Paste.Example" finds a
// document from Paste.Example.
func (ib *indexBuilder) addField(prefix, value string, ordinal uint32) {
	ib.term = appendFoldedToken(append(ib.term[:0], prefix...), value)
	ib.addTerm(ordinal)
}

// addTerm posts ordinal under the term in ib.term, allocating the key
// and its bitmap only at the term's first occurrence in the segment.
func (ib *indexBuilder) addTerm(ordinal uint32) {
	bm := ib.posting[string(ib.term)]
	if bm == nil {
		bm = &Bitmap{}
		ib.posting[string(ib.term)] = bm
	}
	bm.Add(ordinal)
}

// encode renders the complete .idx file contents and returns them with
// the index over them that openIndex would build; the builder must not
// be used after.
func (ib *indexBuilder) encode() ([]byte, *segIndex) {
	buf := make([]byte, 0, 16+8*len(ib.offsets))
	buf = append(buf, idxMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ib.offsets)))
	for _, off := range ib.offsets {
		buf = binary.LittleEndian.AppendUint64(buf, off)
	}
	toks := make([]string, 0, len(ib.posting))
	for tok := range ib.posting {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	ix := &segIndex{offsets: ib.offsets, terms: make([]indexTerm, len(toks))}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(toks)))
	for i, tok := range toks {
		buf = binary.AppendUvarint(buf, uint64(len(tok)))
		ix.terms[i].lo = len(buf)
		buf = append(buf, tok...)
		ix.terms[i].hi = len(buf)
		buf = ib.posting[tok].appendTo(buf)
	}
	ix.data = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return ix.data, ix
}

// openIndex verifies a complete .idx file in one walk — checksum,
// header, offset table, token order, every posting's framing and order
// — and returns the index over it with no posting decoded.
func openIndex(b []byte) (*segIndex, error) {
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
	ix := &segIndex{data: b, offsets: make([]uint64, docs)}
	for i := range ix.offsets {
		ix.offsets[i] = binary.LittleEndian.Uint64(body[pos+8*i:])
	}
	pos += 8 * docs
	if len(body)-pos < 4 {
		return nil, fmt.Errorf("store: index token count truncated")
	}
	nTok := int(binary.LittleEndian.Uint32(body[pos:]))
	pos += 4
	ix.terms = make([]indexTerm, 0, min(nTok, len(body)-pos))
	for i := 0; i < nTok; i++ {
		n, sz := binary.Uvarint(body[pos:])
		if sz <= 0 || n > uint64(len(body)-pos-sz) {
			return nil, fmt.Errorf("store: index token %d truncated", i)
		}
		pos += sz
		tok := body[pos : pos+int(n)]
		if i > 0 && string(tok) <= string(body[ix.terms[i-1].lo:ix.terms[i-1].hi]) {
			return nil, fmt.Errorf("store: index tokens out of order")
		}
		ix.terms = append(ix.terms, indexTerm{lo: pos, hi: pos + int(n)})
		pos += int(n)
		consumed, err := readBitmap(body[pos:], nil)
		if err != nil {
			return nil, fmt.Errorf("store: index token %q: %w", tok, err)
		}
		pos += consumed
	}
	if pos != len(body) {
		return nil, fmt.Errorf("store: %d trailing index bytes", len(body)-pos)
	}
	return ix, nil
}
