// Package store is the persistent segmented corpus store: an on-disk,
// append-only document collection that outlives the process that built
// it, so corpora are generated (or ingested) once and every downstream
// consumer streams from disk instead of regenerating from seeds.
//
// Layout: a store directory holds numbered segments, each an immutable
// pair of files — seg-NNNNNNNN.seg (length-prefixed, checksummed,
// 8-byte-aligned records; segment.go) and seg-NNNNNNNN.idx (record
// offset table plus an inverted index of roaring-style posting bitmaps,
// built at write time; index.go, bitmap.go) — plus MANIFEST.json, the
// single commit point. An append writes both segment files, then
// atomically renames a new manifest over the old one; a segment exists
// exactly when the manifest references it.
//
// Durability and recovery: a crash mid-append leaves segment files the
// manifest never committed. Open detects them (and any truncated or
// bit-flipped tail inside them, via the per-record checksums), salvages
// the intact record prefix into quarantine/<segment>.salvaged.jsonl,
// moves the torn files aside (a repeat crash at the same segment name
// lands beside the first, suffixed .1, .2, ...; see internal/durable),
// and reports it all in the RecoveryReport
// — after which re-appending the same batch produces a store
// byte-identical to one that never crashed (the codec is
// deterministic). Committed segments are size-verified on Open and
// checksum-verified on every read; damage there is reported as a
// *CorruptError, never a silent short read.
//
// Reads go through per-segment readers bounded to the manifest's
// committed extent (reader.go): a read-only mmap where the platform has
// one, a ReadAt fallback elsewhere. Because readers never see past
// SegBytes, scans and lookups are safe concurrently with a live
// appender — the in-progress tail of the next commit is invisible.
// Scan streams in store order, one document at a time; Lookup* answer
// token queries from the posting bitmaps, including OR/NOT boolean
// combinations (query.go).
//
// The manifest generation counter increments on every commit; pipeline
// memoization keys incorporate it, so cached artifacts invalidate when
// segments are appended (see core.Options.StorePath).
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"harassrepro/internal/corpus"
	"harassrepro/internal/durable"
)

const (
	manifestName = "MANIFEST.json"
	segSuffix    = ".seg"
	idxSuffix    = ".idx"

	// DefaultSegmentDocs is AppendAll's per-segment chunk size: large
	// enough that per-segment overhead vanishes, small enough that a
	// Scan never materializes more than one bounded segment at a time.
	DefaultSegmentDocs = 8192
)

// SegmentInfo is one committed segment's manifest entry. The byte
// sizes pin the exact committed extent of both files; the record count
// is what Scan verifies it decoded.
type SegmentInfo struct {
	Name     string `json:"name"`
	Docs     uint32 `json:"docs"`
	SegBytes int64  `json:"seg_bytes"`
	IdxBytes int64  `json:"idx_bytes"`
}

// manifest is the store's commit record.
type manifest struct {
	Version    int           `json:"version"`
	Generation uint64        `json:"generation"`
	Segments   []SegmentInfo `json:"segments"`
}

// TornSegment describes one quarantined (uncommitted) segment found
// during Open.
type TornSegment struct {
	// Name is the segment's base name (seg-NNNNNNNN).
	Name string
	// SalvagedDocs is how many intact records preceded the tear; their
	// decoded documents are written to quarantine/<Name>.salvaged.jsonl
	// (suffixed when an earlier crash left one).
	SalvagedDocs int
	// Cause is the decode failure at the tear point (empty when the
	// file ended cleanly but was never committed).
	Cause string
	// Files lists the quarantined file names (relative to quarantine/).
	Files []string
}

// RecoveryReport summarizes what Open found and repaired.
type RecoveryReport struct {
	Torn []TornSegment
}

// CorruptError reports damage inside a committed segment — unlike a
// torn tail, this is data the manifest promised was durable.
type CorruptError struct {
	Segment string
	Offset  int64
	Err     error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: committed segment %s corrupt at byte %d: %v", e.Segment, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// DocRef locates one document: segment position in manifest order and
// record ordinal within it.
type DocRef struct {
	Segment int
	Ordinal uint32
}

// Store is an open corpus store. One goroutine may append at a time;
// reads (Scan, Lookup*, Doc) are safe concurrently with
// each other and with the appender — a reader only ever sees segments
// the manifest had committed when the read began.
type Store struct {
	dir      string
	recovery RecoveryReport
	// mapSegment is openMmapReader; tests substitute one that reports
	// errNoMmap to run every read path on the portable fallback.
	mapSegment func(path string, committed int64) (segReader, error)

	// mu guards the committed view (man, indexes), the reader cache,
	// and the closed flag. Readers snapshot the slices under mu and
	// then work lock-free: Append publishes a fresh Segments slice and
	// only ever appends to indexes/readers, so a snapshot's prefix is
	// immutable.
	mu      sync.Mutex
	man     manifest
	indexes []*segIndex
	readers []*segHandle
	closed  bool
}

// Create initializes an empty store in dir (created if missing). It
// fails if dir already holds a store.
func Create(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	s := &Store{dir: dir, mapSegment: openMmapReader, man: manifest{Version: version}}
	if err := s.commitManifest(s.man); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads the store in dir, verifying committed segments and
// quarantining any torn uncommitted ones (see RecoveryReport).
func Open(dir string) (*Store, error) {
	return open(dir, openMmapReader)
}

func open(dir string, mapSegment func(string, int64) (segReader, error)) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, mapSegment: mapSegment}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return nil, fmt.Errorf("store: %s: manifest: %w", dir, err)
	}
	if s.man.Version != version {
		return nil, fmt.Errorf("store: %s: manifest version %d, want %d", dir, s.man.Version, version)
	}
	if err := durable.RemoveStaleTmp(dir, manifestName); err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	committed := map[string]bool{}
	for _, si := range s.man.Segments {
		committed[si.Name] = true
		if err := s.verifySegment(si); err != nil {
			return nil, err
		}
	}
	s.readers = make([]*segHandle, len(s.man.Segments))
	if err := s.quarantineOrphans(committed); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadManifest returns the store's generation and segment listing
// without verifying or loading anything — the cheap probe pipeline
// fingerprinting uses.
func ReadManifest(dir string) (generation uint64, segments []SegmentInfo, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, nil, fmt.Errorf("store: %s: manifest: %w", dir, err)
	}
	return m.Generation, m.Segments, nil
}

// verifySegment checks a committed segment's files: exact sizes per
// the manifest and a verified index (openIndex), which it keeps. Record
// payloads are checksum-verified on read.
func (s *Store) verifySegment(si SegmentInfo) error {
	base := filepath.Join(s.dir, si.Name)
	st, err := os.Stat(base + segSuffix)
	if err != nil {
		return &CorruptError{Segment: si.Name, Err: err}
	}
	if st.Size() != si.SegBytes {
		return &CorruptError{Segment: si.Name, Offset: min(st.Size(), si.SegBytes),
			Err: fmt.Errorf("segment file is %d bytes, manifest committed %d", st.Size(), si.SegBytes)}
	}
	idxData, err := os.ReadFile(base + idxSuffix)
	if err != nil {
		return &CorruptError{Segment: si.Name, Err: err}
	}
	if int64(len(idxData)) != si.IdxBytes {
		return &CorruptError{Segment: si.Name,
			Err: fmt.Errorf("index file is %d bytes, manifest committed %d", len(idxData), si.IdxBytes)}
	}
	ix, err := openIndex(idxData)
	if err != nil {
		return &CorruptError{Segment: si.Name, Err: err}
	}
	if uint32(len(ix.offsets)) != si.Docs {
		return &CorruptError{Segment: si.Name,
			Err: fmt.Errorf("index holds %d records, manifest committed %d", len(ix.offsets), si.Docs)}
	}
	s.indexes = append(s.indexes, ix)
	return nil
}

// quarantineOrphans finds segment files the manifest never committed —
// the torn tail of a crashed append — salvages their intact record
// prefixes, and moves the files into quarantine/.
func (s *Store) quarantineOrphans(committed map[string]bool) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	orphans := map[string][]string{} // base name → files
	for _, e := range entries {
		name := e.Name()
		base, ok := strings.CutSuffix(name, segSuffix)
		if !ok {
			base, ok = strings.CutSuffix(name, idxSuffix)
		}
		if !ok || committed[base] {
			continue
		}
		orphans[base] = append(orphans[base], name)
	}
	bases := make([]string, 0, len(orphans))
	for b := range orphans {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, base := range bases {
		torn := TornSegment{Name: base}
		segPath := filepath.Join(s.dir, base+segSuffix)
		if data, err := os.ReadFile(segPath); err == nil {
			docs, cause := salvageRecords(data)
			torn.SalvagedDocs = len(docs)
			if cause != nil {
				torn.Cause = cause.Error()
			}
			if len(docs) > 0 {
				var buf bytes.Buffer
				if err := corpus.WriteJSONL(&buf, docs, true); err != nil {
					return fmt.Errorf("store: quarantine: %w", err)
				}
				name, err := durable.QuarantineFile(s.dir, base+".salvaged.jsonl", buf.Bytes())
				if err != nil {
					return fmt.Errorf("store: quarantine: %w", err)
				}
				torn.Files = append(torn.Files, name)
			}
		}
		sort.Strings(orphans[base])
		for _, name := range orphans[base] {
			dst, err := durable.Quarantine(s.dir, name)
			if err != nil {
				return fmt.Errorf("store: quarantine: %w", err)
			}
			torn.Files = append(torn.Files, dst)
		}
		s.recovery.Torn = append(s.recovery.Torn, torn)
	}
	return nil
}

// salvageRecords decodes the intact record prefix of a torn segment
// file, returning the documents that fully landed and the decode
// failure at the tear point (nil if the file ended cleanly).
func salvageRecords(data []byte) ([]corpus.Document, error) {
	if err := checkSegHeader(data); err != nil {
		return nil, err
	}
	var docs []corpus.Document
	pos := segHeaderSz
	for pos < len(data) {
		payload, n, err := decodeRecord(data[pos:])
		if err != nil {
			return docs, fmt.Errorf("record %d at byte %d: %w", len(docs), pos, err)
		}
		var d corpus.Document
		if err := decodeDoc(&d, payload); err != nil {
			return docs, fmt.Errorf("record %d at byte %d: %w", len(docs), pos, err)
		}
		docs = append(docs, d)
		pos += n
	}
	return docs, nil
}

// Recovery returns what Open salvaged and quarantined.
func (s *Store) Recovery() RecoveryReport { return s.recovery }

// Generation returns the manifest generation: it increments on every
// committed append, so it changes exactly when the store's contents do.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Generation
}

// Segments returns the committed segment listing in manifest order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SegmentInfo(nil), s.man.Segments...)
}

// Docs returns the total committed document count.
func (s *Store) Docs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, si := range s.man.Segments {
		n += int(si.Docs)
	}
	return n
}

// snapshot returns the committed view at one instant: parallel slice
// prefixes of segments and their loaded indexes. The returned slices
// are never mutated (Append publishes fresh or strictly-appended
// slices), so the caller reads them without the lock.
func (s *Store) snapshot() ([]SegmentInfo, []*segIndex, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	return s.man.Segments, s.indexes, nil
}

// acquireReader returns a referenced handle on segment segIdx's
// reader, opening (and caching) it on first use. The caller must
// release the handle when its last slice is dead; the mapping stays
// valid until then even if Close runs in between.
func (s *Store) acquireReader(segIdx int, si SegmentInfo) (*segHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if h := s.readers[segIdx]; h != nil && h.acquire() {
		return h, nil
	}
	rd, err := openSegReader(filepath.Join(s.dir, si.Name+segSuffix), si.SegBytes, s.mapSegment)
	if err != nil {
		return nil, &CorruptError{Segment: si.Name, Err: err}
	}
	h := newSegHandle(rd)
	h.refs.Add(1) // the caller's reference, on top of the cache's
	s.readers[segIdx] = h
	return h, nil
}

// Close releases every cached segment reader. In-flight reads that
// already acquired a handle finish safely — the last reference out,
// theirs or ours, unmaps — and subsequent reads and appends fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	readers := s.readers
	s.readers = nil
	s.mu.Unlock()
	var first error
	for _, h := range readers {
		if h == nil {
			continue
		}
		if err := h.release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Append commits docs as one new segment: segment and index files are
// written and synced first, then the manifest rename makes them
// durable. On any error before the rename the store is unchanged (the
// partial files are exactly what Open quarantines). Readers running
// concurrently see the new segment only after the commit publishes.
func (s *Store) Append(docs []corpus.Document) (SegmentInfo, error) {
	if err := checkSegmentDocs(len(docs)); err != nil {
		return SegmentInfo{}, err
	}
	return s.commitSegment(buildSegment(docs))
}

// checkSegmentDocs rejects a batch no segment can hold.
func checkSegmentDocs(n int) error {
	if n == 0 {
		return errors.New("store: append of zero documents")
	}
	if n > 1<<31 {
		return fmt.Errorf("store: append of %d documents exceeds segment capacity", n)
	}
	return nil
}

// builtSegment is one segment ready to commit: the complete .seg and
// .idx file contents and the index the store publishes for them.
type builtSegment struct {
	docs     uint32
	seg, idx []byte
	ix       *segIndex
}

// buildSegment encodes docs as one segment's records and builds its
// index. It does no I/O and touches no store state, so it can run
// beside the commit of the segment before it.
func buildSegment(docs []corpus.Document) builtSegment {
	size := segHeaderSz
	for i := range docs {
		size += recordSize(payloadLen(&docs[i]))
	}
	seg := append(make([]byte, 0, size), segHeader()...)
	ib := newIndexBuilder()
	for i := range docs {
		ib.add(&docs[i], uint64(len(seg)))
		seg = appendDocRecord(seg, &docs[i])
	}
	idx, ix := ib.encode()
	return builtSegment{docs: uint32(len(docs)), seg: seg, idx: idx, ix: ix}
}

// commitSegment names b after the committed segments, writes and syncs
// its files, commits the manifest and publishes the segment to readers.
// It is the store's one appender: callers must not run two at once.
func (s *Store) commitSegment(b builtSegment) (SegmentInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SegmentInfo{}, ErrClosed
	}
	cur := s.man
	s.mu.Unlock()
	name := fmt.Sprintf("seg-%08d", len(cur.Segments)+1)

	if err := durable.WriteFile(filepath.Join(s.dir, name+segSuffix), b.seg); err != nil {
		return SegmentInfo{}, fmt.Errorf("store: append: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(s.dir, name+idxSuffix), b.idx); err != nil {
		return SegmentInfo{}, fmt.Errorf("store: append: %w", err)
	}

	si := SegmentInfo{Name: name, Docs: b.docs, SegBytes: int64(len(b.seg)), IdxBytes: int64(len(b.idx))}
	man := cur
	man.Segments = append(append([]SegmentInfo(nil), cur.Segments...), si)
	man.Generation++
	if err := s.commitManifest(man); err != nil {
		return SegmentInfo{}, err
	}
	s.mu.Lock()
	s.man = man
	s.indexes = append(s.indexes, b.ix)
	s.readers = append(s.readers, nil)
	s.mu.Unlock()
	return si, nil
}

// AppendAll commits docs as a run of segments of at most perSeg
// documents each (DefaultSegmentDocs when perSeg <= 0), in order, with
// the files a loop of Append calls over the same chunks would write.
// It runs the segment writer IngestJSONL runs (writeSegments), with the
// chunks of docs as its batches: the next chunk's segment is built
// while the one before commits, so beyond docs itself it holds a few
// encoded segments. On a store error the segments committed before it
// stay committed and no later one reaches the disk. The caller must not
// Append or ingest into the same store until AppendAll returns.
func (s *Store) AppendAll(docs []corpus.Document, perSeg int) error {
	if perSeg <= 0 {
		perSeg = DefaultSegmentDocs
	}
	_, err := s.writeSegments(func(put func([]corpus.Document) ([]corpus.Document, error)) error {
		for len(docs) > 0 {
			n := min(perSeg, len(docs))
			if _, err := put(docs[:n:n]); err != nil {
				return err
			}
			docs = docs[n:]
		}
		return nil
	})
	return err
}

// WriteCorpora appends the generated corpora to s in the fixed Table 1
// emit order (boards, blogs, chat, gab, pastes), chunked into segments
// of perSeg documents. Scanning the store then yields every dataset's
// documents in exactly the order the in-memory generator produced
// them — the invariant the store-vs-memory golden equivalence rests on.
func WriteCorpora(s *Store, corpora map[corpus.Dataset]*corpus.Corpus, blogs *corpus.Corpus, perSeg int) error {
	for _, ds := range []corpus.Dataset{corpus.Boards, corpus.Blogs, corpus.Chat, corpus.Gab, corpus.Pastes} {
		c := corpora[ds]
		if ds == corpus.Blogs && blogs != nil {
			c = blogs
		}
		if c == nil || len(c.Docs) == 0 {
			continue
		}
		if err := s.AppendAll(c.Docs, perSeg); err != nil {
			return fmt.Errorf("store: writing %s: %w", ds, err)
		}
	}
	return nil
}

// commitManifest atomically replaces the manifest with man.
func (s *Store) commitManifest(man manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := durable.Commit(s.dir, manifestName, append(data, '\n')); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// scanSegment decodes committed segment segIdx in record order into
// one reused Document, invoking fn per document. The read is bounded
// to si.SegBytes — bytes a live appender may have written past the
// committed extent are never seen — and the decode must consume
// exactly that extent, or the segment is reported corrupt.
func (s *Store) scanSegment(segIdx int, si SegmentInfo, fn func(d *corpus.Document, ref DocRef) error) error {
	h, err := s.acquireReader(segIdx, si)
	if err != nil {
		return err
	}
	defer h.release() //nolint:errcheck // close error surfaces on Store.Close
	data, err := h.rd.slice(0, si.SegBytes)
	if err != nil {
		return &CorruptError{Segment: si.Name, Err: err}
	}
	if err := checkSegHeader(data); err != nil {
		return &CorruptError{Segment: si.Name, Err: err}
	}
	var d corpus.Document
	pos := segHeaderSz
	for ord := uint32(0); ord < si.Docs; ord++ {
		payload, n, err := decodeRecord(data[pos:])
		if err != nil {
			return &CorruptError{Segment: si.Name, Offset: int64(pos), Err: err}
		}
		if err := decodeDoc(&d, payload); err != nil {
			return &CorruptError{Segment: si.Name, Offset: int64(pos), Err: err}
		}
		pos += n
		if err := fn(&d, DocRef{Segment: segIdx, Ordinal: ord}); err != nil {
			return err
		}
	}
	if int64(pos) != si.SegBytes {
		return &CorruptError{Segment: si.Name, Offset: int64(pos),
			Err: fmt.Errorf("%d bytes beyond the last committed record", si.SegBytes-int64(pos))}
	}
	return nil
}

// Scan streams every committed document in store order (segment order,
// then record order), invoking fn with the decoded document and its
// ref. Documents are decoded lazily from each segment's reader — a
// consumer holds at most one segment in memory, never the corpus. fn
// errors abort the scan; record damage surfaces as a *CorruptError.
//
// The *Document passed to fn is reused for the next document and is
// valid only until fn returns: copy *d (or the fields needed) to keep
// it. Its strings are owned, not views into the segment, so a copy
// stays valid after Close.
func (s *Store) Scan(fn func(d *corpus.Document, ref DocRef) error) error {
	segs, _, err := s.snapshot()
	if err != nil {
		return err
	}
	for segIdx, si := range segs {
		if err := s.scanSegment(segIdx, si, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanParallel is Scan; workers is ignored. It remains only because the
// benchmark harness (bench/offline.go) still calls it; the next
// benchmark change switches those calls to Scan and deletes this
// forwarder.
func (s *Store) ScanParallel(_ int, fn func(d *corpus.Document, ref DocRef) error) error {
	return s.Scan(fn)
}

// eachMatch iterates, in store order, the refs set in each committed
// segment's match bitmap (nil means none). fn returns false to stop.
// The only error is ErrClosed, from a store closed before the walk.
func (s *Store) eachMatch(match func(ix *segIndex) *Bitmap, fn func(ref DocRef) bool) error {
	_, indexes, err := s.snapshot()
	if err != nil {
		return err
	}
	for segIdx, ix := range indexes {
		bm := match(ix)
		if bm == nil {
			continue
		}
		stop := false
		bm.Iterate(func(ord uint32) bool {
			if !fn(DocRef{Segment: segIdx, Ordinal: ord}) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
	}
	return nil
}

// fetchMatches is the document-fetching form of eachMatch: fn receives
// each matching document in store order. It takes one snapshot, then
// walks each segment's match bitmap under a single reader reference
// (fetchSegment). A fetch failure is wrapped with what (the lookup's
// description) but keeps its chain — errors.As still surfaces the
// *CorruptError — while an error from fn, or ErrClosed, is returned
// unchanged. fn's *Document follows Scan's reuse contract.
func (s *Store) fetchMatches(what func() string, match func(ix *segIndex) *Bitmap, fn func(d *corpus.Document, ref DocRef) error) error {
	segs, indexes, err := s.snapshot()
	if err != nil {
		return err
	}
	for segIdx, ix := range indexes {
		if bm := match(ix); bm != nil {
			if err := s.fetchSegment(segIdx, segs[segIdx], ix, bm, what, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetchSegment decodes the records of segment segIdx set in bm, in
// ordinal order, into one reused Document, holding the segment's
// reader for the whole walk.
func (s *Store) fetchSegment(segIdx int, si SegmentInfo, ix *segIndex, bm *Bitmap, what func() string, fn func(d *corpus.Document, ref DocRef) error) error {
	h, err := s.acquireReader(segIdx, si)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return err
		}
		return fmt.Errorf("store: %s: reading segment %d: %w", what(), segIdx, err)
	}
	defer h.release() //nolint:errcheck // close error surfaces on Store.Close
	var d corpus.Document
	var ferr error
	bm.Iterate(func(ord uint32) bool {
		if err := readDoc(h.rd, si, ix, ord, &d); err != nil {
			ferr = fmt.Errorf("store: %s: fetching segment %d record %d: %w", what(), segIdx, ord, err)
			return false
		}
		if err := fn(&d, DocRef{Segment: segIdx, Ordinal: ord}); err != nil {
			ferr = err
			return false
		}
		return true
	})
	return ferr
}

// Lookup iterates the refs of every document whose index terms include
// token (see indexBuilder.add for the text terms; "dataset:boards"-style
// field terms also work), in store order. fn returns false to stop. A
// closed store delivers nothing; LookupDocs reports it as ErrClosed.
func (s *Store) Lookup(token string, fn func(ref DocRef) bool) {
	_ = s.eachMatch(tokenMatch(token), fn)
}

// LookupDocs is Lookup plus document fetch, with fetchMatches' error
// contract; on a closed store it returns ErrClosed. As with Scan, the
// *Document passed to fn is reused and valid only until fn returns;
// its strings are owned and outlive Close.
func (s *Store) LookupDocs(token string, fn func(d *corpus.Document, ref DocRef) error) error {
	return s.fetchMatches(func() string { return fmt.Sprintf("lookup %q", token) }, tokenMatch(token), fn)
}

// tokenMatch selects the posting bitmap of token's normalized form.
func tokenMatch(token string) func(ix *segIndex) *Bitmap {
	token = NormalizeToken(token)
	return func(ix *segIndex) *Bitmap { return ix.lookup(token) }
}

// Doc random-accesses one document through the segment's offset table.
// The record bytes come straight from the segment reader (zero copies
// on the mmap path). The returned Document is the caller's own, never
// reused, and owns its strings, so it stays valid after Close.
func (s *Store) Doc(ref DocRef) (corpus.Document, error) {
	segs, indexes, err := s.snapshot()
	if err != nil {
		return corpus.Document{}, err
	}
	if ref.Segment < 0 || ref.Segment >= len(segs) {
		return corpus.Document{}, fmt.Errorf("store: no segment %d", ref.Segment)
	}
	si := segs[ref.Segment]
	h, err := s.acquireReader(ref.Segment, si)
	if err != nil {
		return corpus.Document{}, err
	}
	defer h.release() //nolint:errcheck // close error surfaces on Store.Close
	var d corpus.Document
	if err := readDoc(h.rd, si, indexes[ref.Segment], ref.Ordinal, &d); err != nil {
		return corpus.Document{}, err
	}
	return d, nil
}

// readDoc decodes record ord of committed segment si into d: the
// offset-table bounds, then the record's framing and checksum
// (decodeRecord), then the payload. Doc and fetchSegment share it, so a
// point read and a query walk fail the same way; damage is a
// *CorruptError.
func readDoc(rd segReader, si SegmentInfo, ix *segIndex, ord uint32, d *corpus.Document) error {
	if ord >= uint32(len(ix.offsets)) {
		return fmt.Errorf("store: segment %s has no record %d", si.Name, ord)
	}
	off := int64(ix.offsets[ord])
	end := si.SegBytes
	if int(ord)+1 < len(ix.offsets) {
		end = int64(ix.offsets[ord+1])
	}
	if off < segHeaderSz || end <= off || end > si.SegBytes {
		return &CorruptError{Segment: si.Name, Offset: off,
			Err: errors.New("index offset outside the committed segment")}
	}
	buf, err := rd.slice(off, end-off)
	if err != nil {
		return &CorruptError{Segment: si.Name, Offset: off, Err: err}
	}
	payload, _, err := decodeRecord(buf)
	if err != nil {
		return &CorruptError{Segment: si.Name, Offset: off, Err: err}
	}
	if err := decodeDoc(d, payload); err != nil {
		return &CorruptError{Segment: si.Name, Offset: off, Err: err}
	}
	return nil
}
