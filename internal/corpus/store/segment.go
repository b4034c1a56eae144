package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"harassrepro/internal/corpus"
	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/taxonomy"
)

// Segment file layout. A segment is an append-only run of checksummed,
// length-prefixed records behind a fixed header. Every record header
// starts on an 8-byte boundary so an mmap-style reader can cast headers
// at aligned offsets; the gap to the next boundary is zero-filled,
// which also guarantees that a header read from a preallocated or
// torn region (all zeros) fails validation instead of decoding as an
// empty record.
//
//	header (16 bytes): magic "HRCSSEG1" | version uint32 | flags uint32
//	record:            length uint32 | crc32c(payload) uint32 | payload | pad to 8
//
// All integers are little-endian. CRCs use the Castagnoli polynomial.

const (
	segMagic    = "HRCSSEG1"
	idxMagic    = "HRCSIDX1"
	version     = 1
	segHeaderSz = 16
	recHeaderSz = 8
	recAlign    = 8

	// maxRecordBytes bounds one record's payload. A corrupt length
	// field can therefore never drive a multi-gigabyte allocation or an
	// over-read past the mapped region.
	maxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// subByName maps each known taxonomy subcategory's encoded name to its
// constant and its Table 11 position — the canonical order
// Label.Subs() emits and decodeDoc therefore requires.
var subByName = func() map[string]subEntry {
	m := make(map[string]subEntry)
	for i, s := range taxonomy.Subs() {
		m[string(s)] = subEntry{sub: s, rank: i}
	}
	return m
}()

type subEntry struct {
	sub  taxonomy.Sub
	rank int
}

// piiByName and genderByName map the other closed-vocabulary truth
// strings to their constants, so decoding a known value allocates
// nothing. The codec still accepts any string there (an unknown one is
// copied out), as it always has.
var (
	piiByName = func() map[string]pii.Type {
		m := make(map[string]pii.Type)
		for _, t := range pii.AllTypes() {
			m[string(t)] = t
		}
		return m
	}()
	genderByName = map[string]gender.Gender{
		string(gender.Unknown): gender.Unknown,
		string(gender.Female):  gender.Female,
		string(gender.Male):    gender.Male,
	}
)

// Decode failure causes. ErrTornRecord covers every way a record can
// fail to be fully present (short header, short payload, bad checksum,
// zeroed header); recovery treats the first torn record as the tear
// point and salvages everything before it.
var (
	ErrTornRecord = errors.New("torn or corrupt record")
	ErrBadSegment = errors.New("invalid segment header")
)

// segHeader renders the fixed segment file header.
func segHeader() []byte {
	h := make([]byte, segHeaderSz)
	copy(h, segMagic)
	binary.LittleEndian.PutUint32(h[8:], version)
	return h
}

// checkSegHeader validates a segment file's first bytes.
func checkSegHeader(b []byte) error {
	if len(b) < segHeaderSz || string(b[:8]) != segMagic {
		return ErrBadSegment
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != version {
		return fmt.Errorf("%w: version %d, want %d", ErrBadSegment, v, version)
	}
	return nil
}

// recordSize returns the full aligned on-disk size of a payload.
func recordSize(payloadLen int) int {
	n := recHeaderSz + payloadLen
	if rem := n % recAlign; rem != 0 {
		n += recAlign - rem
	}
	return n
}

// appendDocRecord frames d's record into buf: header, payload, alignment
// pad. The payload is encoded in place and the header filled in after.
func appendDocRecord(buf []byte, d *corpus.Document) []byte {
	start := len(buf)
	buf = encodeDoc(append(buf, make([]byte, recHeaderSz)...), d)
	payload := buf[start+recHeaderSz:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return append(buf, make([]byte, recordSize(len(payload))-recHeaderSz-len(payload))...)
}

// decodeRecord reads the record starting at b[0]. It returns the
// payload (aliasing b) and the aligned size consumed. Any structural
// problem — short data, oversized or zero length, checksum mismatch,
// nonzero padding — returns an error wrapping ErrTornRecord and never
// reads past len(b).
func decodeRecord(b []byte) (payload []byte, consumed int, err error) {
	if len(b) < recHeaderSz {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrTornRecord, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[0:]))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: implausible length %d", ErrTornRecord, n)
	}
	total := recordSize(n)
	if total > len(b) {
		return nil, 0, fmt.Errorf("%w: record of %d bytes, %d available", ErrTornRecord, total, len(b))
	}
	payload = b[recHeaderSz : recHeaderSz+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrTornRecord)
	}
	for _, pad := range b[recHeaderSz+n : total] {
		if pad != 0 {
			return nil, 0, fmt.Errorf("%w: nonzero alignment padding", ErrTornRecord)
		}
	}
	return payload, total, nil
}

// Document payload codec: a deterministic schema of uvarint-prefixed
// strings and uvarints. Two equal Documents always encode to identical
// bytes (the property the crash-recovery byte-identity guarantee and
// the store-vs-memory golden tests rest on).

// truth flag bits.
const (
	tfCTH = 1 << iota
	tfDox
	tfHardNegative
)

// uvarintLen and stringLen are the byte counts binary.AppendUvarint and
// appendString add.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func stringLen(s string) int  { return uvarintLen(uint64(len(s))) + len(s) }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeDoc renders one document payload into buf.
func encodeDoc(buf []byte, d *corpus.Document) []byte {
	buf = appendString(buf, d.ID)
	buf = appendString(buf, string(d.Dataset))
	buf = appendString(buf, string(d.Platform))
	buf = appendString(buf, d.Domain)
	buf = appendString(buf, d.ThreadID)
	buf = binary.AppendUvarint(buf, uint64(d.PosInThread))
	buf = binary.AppendUvarint(buf, uint64(d.ThreadSize))
	buf = appendString(buf, d.Author)
	buf = appendString(buf, d.Date)
	buf = appendString(buf, d.Text)

	var flags byte
	if d.Truth.IsCTH {
		flags |= tfCTH
	}
	if d.Truth.IsDox {
		flags |= tfDox
	}
	if d.Truth.HardNegative {
		flags |= tfHardNegative
	}
	buf = append(buf, flags)
	var scratch [taxonomy.SubcategoryCount + 1]taxonomy.Sub
	subs := d.Truth.CTHLabel.AppendSubs(scratch[:0])
	buf = binary.AppendUvarint(buf, uint64(len(subs)))
	for _, s := range subs {
		buf = appendString(buf, string(s))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Truth.DoxPII)))
	for _, t := range d.Truth.DoxPII {
		buf = appendString(buf, string(t))
	}
	buf = binary.AppendUvarint(buf, uint64(d.Truth.TargetID))
	buf = appendString(buf, string(d.Truth.TargetGender))
	return buf
}

// payloadLen is len(encodeDoc(nil, d)), computed without encoding.
func payloadLen(d *corpus.Document) int {
	var scratch [taxonomy.SubcategoryCount + 1]taxonomy.Sub
	subs := d.Truth.CTHLabel.AppendSubs(scratch[:0])
	n := 1 + uvarintLen(uint64(d.PosInThread)) + uvarintLen(uint64(d.ThreadSize)) + uvarintLen(uint64(d.Truth.TargetID)) +
		uvarintLen(uint64(len(subs))) + uvarintLen(uint64(len(d.Truth.DoxPII)))
	for _, s := range [...]string{d.ID, string(d.Dataset), string(d.Platform), d.Domain, d.ThreadID, d.Author, d.Date, d.Text, string(d.Truth.TargetGender)} {
		n += stringLen(s)
	}
	for _, s := range subs {
		n += stringLen(string(s))
	}
	for _, t := range d.Truth.DoxPII {
		n += stringLen(string(t))
	}
	return n
}

// docDecoder walks a payload with strict bounds checks; every read
// either succeeds inside the buffer or flips err, never panics.
type docDecoder struct {
	b   []byte
	pos int
	err error
}

func (dd *docDecoder) uvarint() uint64 {
	if dd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(dd.b[dd.pos:])
	if n <= 0 {
		dd.err = fmt.Errorf("store: truncated uvarint at offset %d", dd.pos)
		return 0
	}
	// Reject non-minimal encodings (a trailing zero group, e.g. 0x80 0x00
	// for 0): the encoder always emits the minimal form, and accepting
	// only it keeps decode∘encode the identity.
	if n > 1 && dd.b[dd.pos+n-1] == 0 {
		dd.err = fmt.Errorf("store: non-minimal uvarint at offset %d", dd.pos)
		return 0
	}
	dd.pos += n
	return v
}

// span is a string field's byte range [lo, hi) in the payload.
type span struct{ lo, hi int }

// in returns the field as a substring of s, a string copy of the
// payload prefix that contains it.
func (sp span) in(s string) string { return s[sp.lo:sp.hi] }

// span reads one uvarint-prefixed string without copying it.
func (dd *docDecoder) span() span {
	n := dd.uvarint()
	if dd.err != nil {
		return span{}
	}
	if n > uint64(len(dd.b)-dd.pos) {
		dd.err = fmt.Errorf("store: string of %d bytes exceeds payload at offset %d", n, dd.pos)
		return span{}
	}
	sp := span{dd.pos, dd.pos + int(n)}
	dd.pos = sp.hi
	return sp
}

// bytes reads one uvarint-prefixed string as a view into the payload.
func (dd *docDecoder) bytes() []byte {
	sp := dd.span()
	return dd.b[sp.lo:sp.hi]
}

func (dd *docDecoder) byte() byte {
	if dd.err != nil {
		return 0
	}
	if dd.pos >= len(dd.b) {
		dd.err = fmt.Errorf("store: truncated payload at offset %d", dd.pos)
		return 0
	}
	c := dd.b[dd.pos]
	dd.pos++
	return c
}

// maxCount bounds decoded list lengths to what the remaining payload
// could possibly hold (each element is at least one byte), so a corrupt
// count cannot drive allocation.
func (dd *docDecoder) count() int {
	n := dd.uvarint()
	if dd.err != nil {
		return 0
	}
	if n > uint64(len(dd.b)-dd.pos) {
		dd.err = fmt.Errorf("store: list of %d elements exceeds payload at offset %d", n, dd.pos)
		return 0
	}
	return int(n)
}

// decodeDoc parses one document payload into d, which it resets first,
// so a caller may decode record after record into one Document. The
// entire payload must be consumed: trailing garbage is an error, so
// encode∘decode is exact. On error d is left zeroed.
//
// A decode costs two string allocations. The fields before Text are
// substrings of one copy of the payload prefix that holds them, and
// Text is a copy of its own: a consumer that keeps only an ID then
// pins that short prefix, never the text. Known closed-vocabulary
// truth strings (label subcategories, PII types, target gender) decode
// to their constants; a labelled document also allocates its DoxPII
// slice.
func decodeDoc(d *corpus.Document, payload []byte) error {
	*d = corpus.Document{}
	dd := docDecoder{b: payload}
	id := dd.span()
	dataset := dd.span()
	platform := dd.span()
	domain := dd.span()
	thread := dd.span()
	posInThread := dd.uvarint()
	threadSize := dd.uvarint()
	author := dd.span()
	date := dd.span()
	headEnd := dd.pos
	text := dd.span()

	flags := dd.byte()
	if flags&^(tfCTH|tfDox|tfHardNegative) != 0 && dd.err == nil {
		// The encoder only ever sets the three known bits; accepting
		// others would break decode∘encode identity.
		dd.err = fmt.Errorf("store: unknown truth flag bits %#x at offset %d", flags, dd.pos)
	}
	d.Truth.IsCTH = flags&tfCTH != 0
	d.Truth.IsDox = flags&tfDox != 0
	d.Truth.HardNegative = flags&tfHardNegative != 0
	if n := dd.count(); n > 0 && dd.err == nil {
		// The encoder writes Label.Subs() output: known subcategories in
		// strictly ascending Table 11 order. Enforcing that here keeps
		// decode∘encode the identity and rejects corrupted sub lists
		// (Label would otherwise silently drop unknown subs). Strictly
		// ascending known ranks bound the list to the table's length.
		var buf [32]taxonomy.Sub
		subs := buf[:0]
		prev := -1
		for i := 0; i < n; i++ {
			name := dd.bytes()
			if dd.err != nil {
				break
			}
			e, ok := subByName[string(name)]
			if !ok || e.rank <= prev {
				dd.err = fmt.Errorf("store: non-canonical label sub %q at offset %d", name, dd.pos)
				break
			}
			prev = e.rank
			subs = append(subs, e.sub)
		}
		d.Truth.CTHLabel = taxonomy.NewLabel(subs...)
	}
	if n := dd.count(); n > 0 && dd.err == nil {
		types := make([]pii.Type, 0, n)
		for i := 0; i < n; i++ {
			name := dd.bytes()
			t, ok := piiByName[string(name)]
			if !ok {
				t = pii.Type(name)
			}
			types = append(types, t)
		}
		d.Truth.DoxPII = types
	}
	d.Truth.TargetID = int(dd.uvarint())
	targetGender := dd.bytes()
	if dd.err == nil && dd.pos != len(payload) {
		dd.err = fmt.Errorf("store: %d trailing payload bytes", len(payload)-dd.pos)
	}
	if dd.err != nil {
		*d = corpus.Document{}
		return dd.err
	}
	if g, ok := genderByName[string(targetGender)]; ok {
		d.Truth.TargetGender = g
	} else {
		d.Truth.TargetGender = gender.Gender(targetGender)
	}

	head := string(payload[:headEnd])
	d.ID = id.in(head)
	d.Dataset = corpus.Dataset(dataset.in(head))
	d.Platform = corpus.Platform(platform.in(head))
	d.Domain = domain.in(head)
	d.ThreadID = thread.in(head)
	d.PosInThread = int(posInThread)
	d.ThreadSize = int(threadSize)
	d.Author = author.in(head)
	d.Date = date.in(head)
	d.Text = string(payload[text.lo:text.hi])
	return nil
}
