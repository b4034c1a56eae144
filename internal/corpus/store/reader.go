package store

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// The segment read path. Every reader is bounded to the manifest's
// committed extent (SegmentInfo.SegBytes): bytes past it — the torn or
// in-progress tail of a crashed or concurrent append — are invisible,
// never a decode input and never a spurious CorruptError.
//
// Two implementations sit behind segReader: a read-only mmap of the
// committed extent (mmap_unix.go; slice is zero-copy into the mapping)
// and a portable ReadAt fallback (platforms without mmap and files mmap
// refuses). Store code never knows which one it got.

// ErrClosed is returned by reads and appends after Store.Close.
var ErrClosed = errors.New("store: closed")

// openReaderCount tracks live segment readers (mapping or file
// handle) across the package — the leak check the close/race tests
// assert against zero.
var openReaderCount atomic.Int64

// segReader is random access to one committed segment's bytes.
type segReader interface {
	// slice returns the bytes [off, off+n), both bounded to the
	// committed extent. The result may alias a shared mapping: callers
	// must treat it as read-only and not retain it past the enclosing
	// segHandle release.
	slice(off, n int64) ([]byte, error)
	close() error
}

// openSegReader opens the committed extent of a segment file: the
// mapping when mapSegment provides one, the buffered ReadAt fallback
// when it reports errNoMmap.
func openSegReader(path string, committed int64, mapSegment func(string, int64) (segReader, error)) (segReader, error) {
	if r, err := mapSegment(path, committed); err == nil {
		openReaderCount.Add(1)
		return r, nil
	} else if !errors.Is(err, errNoMmap) {
		// A real I/O error (missing file, short file) is the same
		// failure the fallback would hit; surface it now.
		return nil, err
	}
	r, err := openFileReader(path, committed)
	if err != nil {
		return nil, err
	}
	openReaderCount.Add(1)
	return r, nil
}

// errNoMmap means mmap is unavailable here (platform or map failure);
// openSegReader falls back to the file reader.
var errNoMmap = errors.New("store: mmap unavailable")

// fileReader is the portable fallback: a kept-open file handle and
// bounds-checked ReadAt calls. Each slice allocates its result.
type fileReader struct {
	f         *os.File
	committed int64
}

func openFileReader(path string, committed int64) (*fileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < committed {
		f.Close()
		return nil, fmt.Errorf("segment file is %d bytes, manifest committed %d", st.Size(), committed)
	}
	return &fileReader{f: f, committed: committed}, nil
}

func (r *fileReader) slice(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > r.committed {
		return nil, fmt.Errorf("read [%d,%d) outside the committed %d bytes", off, off+n, r.committed)
	}
	buf := make([]byte, n)
	if _, err := r.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (r *fileReader) close() error {
	openReaderCount.Add(-1)
	return r.f.Close()
}

// segHandle reference-counts a segReader so a mapping is never
// unmapped while a read aliases it: the Store's cache holds one owner
// reference, every in-flight read holds another, and the last release
// — whichever side it is — closes the reader. Close can therefore run
// concurrently with Doc/Scan without a use-after-unmap or a leaked
// handle.
type segHandle struct {
	rd   segReader
	refs atomic.Int64
}

func newSegHandle(rd segReader) *segHandle {
	h := &segHandle{rd: rd}
	h.refs.Store(1) // the cache's owner reference
	return h
}

// acquire takes a read reference; it fails once the handle is on its
// way down (refs reached zero).
func (h *segHandle) acquire() bool {
	for {
		n := h.refs.Load()
		if n <= 0 {
			return false
		}
		if h.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference, closing the reader when it was the
// last.
func (h *segHandle) release() error {
	if h.refs.Add(-1) == 0 {
		return h.rd.close()
	}
	return nil
}
