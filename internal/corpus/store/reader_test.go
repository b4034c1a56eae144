package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"harassrepro/internal/corpus"
)

// openNoMmap opens dir as a platform without mmap would: the map
// attempt reports errNoMmap, so every segment gets the ReadAt fallback.
func openNoMmap(dir string) (*Store, error) {
	return open(dir, func(string, int64) (segReader, error) { return nil, errNoMmap })
}

// openArms runs f once per reader implementation: the default (mmap
// where the platform has one) and the ReadAt fallback. Every read-path
// property must hold identically on both.
func openArms(t *testing.T, f func(t *testing.T, openStore func(dir string) (*Store, error))) {
	t.Helper()
	for _, arm := range []struct {
		name string
		open func(dir string) (*Store, error)
	}{
		{"default", Open},
		{"nommap", openNoMmap},
	} {
		t.Run(arm.name, func(t *testing.T) { f(t, arm.open) })
	}
}

// TestNoMmapFallsBackToFileReader pins what the "nommap" arm runs on:
// when mapping is unavailable the segment reader is the fileReader,
// and Close releases it.
func TestNoMmapFallsBackToFileReader(t *testing.T) {
	before := openReaderCount.Load()
	dir := t.TempDir()
	s0, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.AppendAll(testDocs(3, "fb-"), 3); err != nil {
		t.Fatal(err)
	}
	s0.Close()

	s, err := openNoMmap(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Doc(DocRef{Segment: 0, Ordinal: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.readers[0].rd.(*fileReader); !ok {
		t.Fatalf("segment reader is %T, want *fileReader", s.readers[0].rd)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openReaderCount.Load(); got != before {
		t.Fatalf("open reader count = %d, want %d (leak)", got, before)
	}
}

// TestScanCorruptSegmentIsolated: a corrupt segment fails its own
// decode, but every document of every earlier segment — and of the
// corrupt one up to the damaged record — is still delivered, in order,
// before the *CorruptError surfaces, and nothing after it is.
func TestScanCorruptSegmentIsolated(t *testing.T) {
	dir := t.TempDir()
	batches := [][]corpus.Document{
		testDocs(4, "a-"), testDocs(4, "b-"), testDocs(4, "c-"), testDocs(4, "d-"),
	}
	buildStore(t, dir, batches...).Close()
	// Flip a byte mid-segment-3; sizes still match, so damage surfaces
	// on read, not on Open.
	path := filepath.Join(dir, "seg-00000003"+segSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []string
	err = s.Scan(func(d *corpus.Document, _ DocRef) error {
		got = append(got, d.ID)
		return nil
	})
	var ce *CorruptError
	if err == nil || !errors.As(err, &ce) || ce.Segment != "seg-00000003" {
		t.Fatalf("scan err = %v, want CorruptError in seg-00000003", err)
	}
	// The damaged record is the one the error points at; its
	// predecessors in segment 3 decoded cleanly.
	intact := -1
	for ord, off := range s.indexes[2].offsets {
		if int64(off) == ce.Offset {
			intact = ord
		}
	}
	if intact < 0 {
		t.Fatalf("CorruptError offset %d is no record start of seg-00000003", ce.Offset)
	}
	var want []string
	for _, d := range append(append(append([]corpus.Document(nil), batches[0]...), batches[1]...), batches[2][:intact]...) {
		want = append(want, d.ID)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("delivered %v before the error, want %v", got, want)
	}
}

// TestScanFnErrorStopsEarly: an fn error comes back unchanged and the
// documents delivered before it are a store-order prefix.
func TestScanFnErrorStopsEarly(t *testing.T) {
	dir := t.TempDir()
	docs := testDocs(20, "fe-")
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendAll(docs, 4); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n := 0
	err = s.Scan(func(d *corpus.Document, _ DocRef) error {
		if d.ID != docs[n].ID {
			t.Fatalf("doc %d = %q, want %q", n, d.ID, docs[n].ID)
		}
		n++
		if n == 7 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom unchanged", err)
	}
	if n != 7 {
		t.Fatalf("fn ran %d times after its error, want 7", n)
	}
}

// TestScanIgnoresUncommittedTail is the torn-tail regression: bytes
// past the manifest's committed SegBytes — the in-progress tail of a
// crashed or concurrent append — must be invisible to every read path,
// never a decode input and never a spurious "trailing bytes" corrupt
// error.
func TestScanIgnoresUncommittedTail(t *testing.T) {
	openArms(t, func(t *testing.T, openStore func(string) (*Store, error)) {
		dir := t.TempDir()
		docs := testDocs(9, "tail-")
		s0, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s0.AppendAll(docs, 4); err != nil { // 3 segments
			t.Fatal(err)
		}
		s0.Close()

		s, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Grow the last segment past its committed extent before any
		// reader opens, the way a live appender's in-flight write would.
		f, err := os.OpenFile(filepath.Join(dir, "seg-00000003"+segSuffix), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 123)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		docsEqual(t, docs, scanAll(t, s))
		d, err := s.Doc(DocRef{Segment: 2, Ordinal: 0})
		if err != nil {
			t.Fatal(err)
		}
		if d.ID != docs[8].ID {
			t.Fatalf("Doc = %q, want %q", d.ID, docs[8].ID)
		}
	})
}

// TestScanWhileAppend: readers scan while an appender commits batches,
// and every scan must observe an exact committed prefix — full
// batches, in order, no torn reads.
func TestScanWhileAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const batch = 4
	all := testDocs(12*batch, "wa-")
	if _, err := s.Append(all[:batch]); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var fails []string
	report := func(format string, args ...any) {
		mu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := batch; off < len(all); off += batch {
			if _, err := s.Append(all[off : off+batch]); err != nil {
				report("append at %d: %v", off, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				n := 0
				err := s.Scan(func(d *corpus.Document, _ DocRef) error {
					if n < len(all) && d.ID != all[n].ID {
						return fmt.Errorf("doc %d = %q, want %q", n, d.ID, all[n].ID)
					}
					n++
					return nil
				})
				if err != nil {
					report("scan: %v", err)
					return
				}
				if n%batch != 0 || n == 0 || n > len(all) {
					report("scan saw %d docs, not a committed batch multiple", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	docsEqual(t, all, scanAll(t, s))
}

// TestDocConcurrentWithClose: readers hammering Doc while Close runs
// must never observe a use-after-unmap, a torn read, or anything but a
// clean document or ErrClosed — and when the dust settles every reader
// handle (mapping or fd) must be released.
func TestDocConcurrentWithClose(t *testing.T) {
	before := openReaderCount.Load()
	dir := t.TempDir()
	docs := testDocs(12, "cl-")
	s0, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.AppendAll(docs, 3); err != nil { // 4 segments
		t.Fatal(err)
	}
	s0.Close()

	openArms(t, func(t *testing.T, openStore func(string) (*Store, error)) {
		s, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var refs []DocRef
		if err := s.Scan(func(_ *corpus.Document, ref DocRef) error {
			refs = append(refs, ref)
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		var mu sync.Mutex
		var fails []string
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 300; i++ {
					ref := refs[(g*31+i)%len(refs)]
					d, err := s.Doc(ref)
					switch {
					case err == nil:
						if d.ID == "" {
							mu.Lock()
							fails = append(fails, "Doc returned an empty document")
							mu.Unlock()
						}
					case errors.Is(err, ErrClosed):
						// expected once Close lands
					default:
						mu.Lock()
						fails = append(fails, fmt.Sprintf("Doc(%+v): %v", ref, err))
						mu.Unlock()
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Close(); err != nil {
				mu.Lock()
				fails = append(fails, fmt.Sprintf("Close: %v", err))
				mu.Unlock()
			}
		}()
		close(start)
		wg.Wait()
		for _, f := range fails {
			t.Error(f)
		}

		// The store is down: every read path reports ErrClosed.
		if _, err := s.Doc(refs[0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("Doc after Close = %v, want ErrClosed", err)
		}
		if err := s.Scan(func(*corpus.Document, DocRef) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("Scan after Close = %v, want ErrClosed", err)
		}
		noop := func(*corpus.Document, DocRef) error { return nil }
		if err := s.LookupDocs("report", noop); !errors.Is(err, ErrClosed) {
			t.Fatalf("LookupDocs after Close = %v, want ErrClosed", err)
		}
		q, err := ParseQuery("report|channel")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LookupQueryDocs(q, noop); !errors.Is(err, ErrClosed) {
			t.Fatalf("LookupQueryDocs after Close = %v, want ErrClosed", err)
		}
		if _, err := s.Append(docs[:1]); !errors.Is(err, ErrClosed) {
			t.Fatalf("Append after Close = %v, want ErrClosed", err)
		}
		// No leaked mappings or file handles.
		if got := openReaderCount.Load(); got != before {
			t.Fatalf("open reader count = %d, want %d (leak)", got, before)
		}
	})
}

// TestLookupQueryDocsConcurrentWithClose: a query walk holds one
// segment reader reference across that segment's whole bitmap walk, so
// walks race Close and a live appender here. Every walk must deliver
// exact copies of committed documents and end cleanly, with ErrClosed,
// or — for the query whose match is a damaged record — with the
// *CorruptError chain TestLookupDocsCorruptionKeepsChain pins. When
// the dust settles every reader handle must be released.
func TestLookupQueryDocsConcurrentWithClose(t *testing.T) {
	before := openReaderCount.Load()
	openArms(t, func(t *testing.T, openStore func(string) (*Store, error)) {
		dir := t.TempDir()
		docs := testDocs(12, "qc-")
		docs[7].Text = "poisoned record" // segment 3, ordinal 1
		buildStore(t, dir, docs[:3], docs[3:6], docs[6:9], docs[9:]).Close()
		path := filepath.Join(dir, "seg-00000003"+segSuffix)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[recordBoundaries(t, data)[1]+recHeaderSz+2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		const maxBatches, maxWalks = 40, 5000
		byID := map[string]corpus.Document{}
		for _, d := range docs {
			byID[d.ID] = d
		}
		batches := make([][]corpus.Document, maxBatches)
		for k := range batches {
			batches[k] = testDocs(3, fmt.Sprintf("qa%d-", k))
			for _, d := range batches[k] {
				byID[d.ID] = d
			}
		}
		healthy, err := ParseQuery("report|channel")
		if err != nil {
			t.Fatal(err)
		}
		poisoned, err := ParseQuery("poisoned")
		if err != nil {
			t.Fatal(err)
		}

		s, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var fails []string
		report := func(format string, args ...any) {
			mu.Lock()
			fails = append(fails, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		var walks atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < maxWalks; i++ {
					if (g+i)%2 == 0 {
						err := s.LookupQueryDocs(healthy, func(d *corpus.Document, _ DocRef) error {
							if want, ok := byID[d.ID]; !ok || !reflect.DeepEqual(*d, want) {
								report("healthy walk delivered %+v", *d)
							}
							return nil
						})
						if err != nil && !errors.Is(err, ErrClosed) {
							report("healthy walk: %v", err)
						}
						if err != nil {
							return
						}
					} else {
						err := s.LookupQueryDocs(poisoned, func(d *corpus.Document, _ DocRef) error {
							report("poisoned walk delivered %q", d.ID)
							return nil
						})
						if errors.Is(err, ErrClosed) {
							return
						}
						var ce *CorruptError
						if !errors.As(err, &ce) || ce.Segment != "seg-00000003" {
							report("poisoned walk error = %v, want a wrapped *CorruptError in seg-00000003", err)
						}
					}
					walks.Add(1)
				}
			}(g)
		}
		wg.Add(1)
		go func() { // the live appender
			defer wg.Done()
			<-start
			for _, b := range batches {
				if _, err := s.Append(b); err != nil {
					if !errors.Is(err, ErrClosed) {
						report("append: %v", err)
					}
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // Close lands mid-traffic
			defer wg.Done()
			<-start
			for walks.Load() < 60 {
				runtime.Gosched()
			}
			if err := s.Close(); err != nil {
				report("Close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		for _, f := range fails {
			t.Error(f)
		}
		if err := s.LookupQueryDocs(healthy, func(*corpus.Document, DocRef) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("LookupQueryDocs after Close = %v, want ErrClosed", err)
		}
		if got := openReaderCount.Load(); got != before {
			t.Fatalf("open reader count = %d, want %d (leak)", got, before)
		}
	})
}

// TestCommitManifestCleansTmpOnRenameFailure: a commit whose rename
// fails must not orphan MANIFEST.json.tmp (which a later Open would
// otherwise trip over or a backup tool would copy as half a manifest).
func TestCommitManifestCleansTmpOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Make the rename target un-renameable: a non-empty directory in the
	// manifest's place fails rename(2) with EISDIR on every platform.
	mpath := filepath.Join(dir, manifestName)
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(mpath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mpath, "occupied"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testDocs(2, "mf-")); err == nil {
		t.Fatal("append committed over an un-renameable manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("manifest tmp left behind after failed rename: stat = %v", err)
	}
}

// TestOpenRemovesStaleManifestTmp: a MANIFEST.json.tmp left by a crash
// between tmp write and rename is residue, not state — Open drops it
// and serves the real manifest.
func TestOpenRemovesStaleManifestTmp(t *testing.T) {
	dir := t.TempDir()
	docs := testDocs(3, "st-")
	buildStore(t, dir, docs).Close()
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"version":1,"generation":`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale manifest tmp survived Open: stat = %v", err)
	}
	docsEqual(t, docs, scanAll(t, s))
}

// TestLookupDocsCorruptionKeepsChain: a fetch failure inside a lookup
// is wrapped with query context, but errors.As must still reach the
// *CorruptError underneath — and an error from the consumer fn must
// come back unchanged, never wrapped as corruption.
func TestLookupDocsCorruptionKeepsChain(t *testing.T) {
	dir := t.TempDir()
	docs := testDocs(6, "ce-")
	buildStore(t, dir, docs).Close()
	path := filepath.Join(dir, "seg-00000001"+segSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir) // sizes still match: damage surfaces on read
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// "report" and "channel" appear in every testDocs document, so each
	// lookup walks into the flipped record.
	checkCorrupt := func(name string, err error) {
		t.Helper()
		var ce *CorruptError
		if err == nil || !errors.As(err, &ce) {
			t.Fatalf("%s error = %v, want a wrapped *CorruptError", name, err)
		}
		if ce.Segment != "seg-00000001" {
			t.Fatalf("%s CorruptError.Segment = %q", name, ce.Segment)
		}
	}
	noop := func(*corpus.Document, DocRef) error { return nil }
	checkCorrupt("LookupDocs", s.LookupDocs("report", noop))
	q, err := ParseQuery("report|channel,-no-such-token")
	if err != nil {
		t.Fatal(err)
	}
	checkCorrupt("LookupQueryDocs", s.LookupQueryDocs(q, noop))

	// Consumer errors pass through untouched on a healthy store.
	clean := t.TempDir()
	buildStore(t, clean, docs).Close()
	cs, err := Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	boom := errors.New("boom")
	fail := func(*corpus.Document, DocRef) error { return boom }
	if err := cs.LookupDocs("report", fail); err != boom {
		t.Fatalf("LookupDocs fn error = %v, want boom unchanged", err)
	}
	if err := cs.LookupQueryDocs(q, fail); err != boom {
		t.Fatalf("LookupQueryDocs fn error = %v, want boom unchanged", err)
	}
}
