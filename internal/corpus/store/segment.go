package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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

// subRank maps each known taxonomy subcategory to its Table 11
// position, the canonical order Label.Subs() emits and decodeDoc
// therefore requires.
var subRank = func() map[taxonomy.Sub]int {
	m := make(map[taxonomy.Sub]int)
	for i, s := range taxonomy.Subs() {
		m[s] = i
	}
	return m
}()

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

// appendRecord frames payload into buf: header, payload, alignment pad.
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
	subs := d.Truth.CTHLabel.Subs()
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

func (dd *docDecoder) str() string {
	n := dd.uvarint()
	if dd.err != nil {
		return ""
	}
	if n > uint64(len(dd.b)-dd.pos) {
		dd.err = fmt.Errorf("store: string of %d bytes exceeds payload at offset %d", n, dd.pos)
		return ""
	}
	s := string(dd.b[dd.pos : dd.pos+int(n)])
	dd.pos += int(n)
	return s
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

// decodeDoc parses one document payload. The entire payload must be
// consumed: trailing garbage is an error, so encode∘decode is exact.
func decodeDoc(payload []byte) (corpus.Document, error) {
	dd := &docDecoder{b: payload}
	var d corpus.Document
	d.ID = dd.str()
	d.Dataset = corpus.Dataset(dd.str())
	d.Platform = corpus.Platform(dd.str())
	d.Domain = dd.str()
	d.ThreadID = dd.str()
	d.PosInThread = int(dd.uvarint())
	d.ThreadSize = int(dd.uvarint())
	d.Author = dd.str()
	d.Date = dd.str()
	d.Text = dd.str()

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
		// (Label would otherwise silently drop unknown subs).
		subs := make([]taxonomy.Sub, 0, n)
		prev := -1
		for i := 0; i < n; i++ {
			s := taxonomy.Sub(dd.str())
			if dd.err != nil {
				break
			}
			rank, ok := subRank[s]
			if !ok || rank <= prev {
				dd.err = fmt.Errorf("store: non-canonical label sub %q at offset %d", s, dd.pos)
				break
			}
			prev = rank
			subs = append(subs, s)
		}
		if dd.err == nil {
			d.Truth.CTHLabel = taxonomy.NewLabel(subs...)
		}
	}
	if n := dd.count(); n > 0 && dd.err == nil {
		types := make([]pii.Type, 0, n)
		for i := 0; i < n; i++ {
			types = append(types, pii.Type(dd.str()))
		}
		if dd.err == nil {
			d.Truth.DoxPII = types
		}
	}
	d.Truth.TargetID = int(dd.uvarint())
	d.Truth.TargetGender = gender.Gender(dd.str())
	if dd.err != nil {
		return corpus.Document{}, dd.err
	}
	if dd.pos != len(payload) {
		return corpus.Document{}, fmt.Errorf("store: %d trailing payload bytes", len(payload)-dd.pos)
	}
	return d, nil
}
