package store

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"harassrepro/internal/corpus"
)

// ingestLines is JSONL of n good documents with a malformed line, a
// blank line and a line past the 16 MiB default limit interleaved.
func ingestLines(t *testing.T, n int) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf, testDocs(n, "ing-"), true); err != nil {
		t.Fatal(err)
	}
	good := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var lines []string
	for i, l := range good {
		lines = append(lines, l)
		switch i {
		case 1:
			lines = append(lines, "{broken json\n", "\n")
		case 4:
			lines = append(lines, `{"text":"`+strings.Repeat("x", 16<<20)+`"}`+"\n")
		case 5:
			lines = append(lines, `{"id":"no text"}`+"\n")
		}
	}
	return lines
}

// TestIngestJSONLMatchesAppendAll: streaming ingest and AppendAll both
// write, byte for byte, the store a loop of single-segment Append calls
// writes for the same good documents, and ingest quarantines the lines
// a lenient read does, at any segment size. Every case spans more
// segments than the writer has stages, so segments are built while
// earlier ones commit; neither writer leaves a goroutine behind.
func TestIngestJSONLMatchesAppendAll(t *testing.T) {
	for _, tc := range []struct{ perSeg, docs int }{
		{1, 10}, {3, 20}, {1000, 4500}, {0, 3*DefaultSegmentDocs + 700},
	} {
		in := strings.Join(ingestLines(t, tc.docs), "")
		docs, wantBad, err := corpus.ReadJSONLLenient(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		per := tc.perSeg
		if per <= 0 {
			per = DefaultSegmentDocs
		}
		ref := buildStore(t, t.TempDir())
		for lo := 0; lo < len(docs); lo += per {
			if _, err := ref.Append(docs[lo:min(lo+per, len(docs))]); err != nil {
				t.Fatal(err)
			}
		}
		ref.Close()
		if segs := len(ref.Segments()); segs < 4 {
			t.Fatalf("perSeg %d: %d segments, too few to fill the pipeline", tc.perSeg, segs)
		}

		streamed := buildStore(t, t.TempDir())
		before := runtime.NumGoroutine()
		added, bad, err := IngestJSONL(streamed, strings.NewReader(in), tc.perSeg)
		if err != nil {
			t.Fatal(err)
		}
		checkNoGoroutineLeak(t, before)
		streamed.Close()
		if added != len(docs) || added != tc.docs {
			t.Fatalf("perSeg %d: added %d, want %d", tc.perSeg, added, len(docs))
		}
		if len(bad) != 3 || len(bad) != len(wantBad) {
			t.Fatalf("perSeg %d: %d bad lines, want 3", tc.perSeg, len(bad))
		}
		for i := range bad {
			if bad[i].Error() != wantBad[i].Error() {
				t.Fatalf("perSeg %d: bad line %v, want %v", tc.perSeg, bad[i], wantBad[i])
			}
		}

		whole := buildStore(t, t.TempDir())
		before = runtime.NumGoroutine()
		if err := whole.AppendAll(docs, tc.perSeg); err != nil {
			t.Fatal(err)
		}
		checkNoGoroutineLeak(t, before)
		whole.Close()

		compareStoreDirs(t, ref.dir, streamed.dir)
		compareStoreDirs(t, ref.dir, whole.dir)
	}
}

// TestAppendAllStoreErrorKeepsCommittedPrefix: AppendAll on a store
// that closes under it commits a whole number of its segments, in
// order, leaves nothing else on disk and no goroutine behind, and
// returns ErrClosed unless every segment committed first.
func TestAppendAllStoreErrorKeepsCommittedPrefix(t *testing.T) {
	docs := testDocs(40, "all-")
	for i := 0; i < 10; i++ {
		dir := filepath.Join(t.TempDir(), "store")
		s := buildStore(t, dir)
		before := runtime.NumGoroutine()
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			s.Close()
		}()
		err := s.AppendAll(docs, 4)
		<-closed
		checkNoGoroutineLeak(t, before)
		committed := s.Docs()
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want nil or ErrClosed", err)
		}
		if (err == nil) != (committed == len(docs)) || committed%4 != 0 {
			t.Fatalf("err = %v with %d of %d documents committed", err, committed, len(docs))
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if torn := r.Recovery().Torn; len(torn) != 0 {
			t.Fatalf("uncommitted segments reached the disk: %+v", torn)
		}
		docsEqual(t, docs[:committed], scanAll(t, r))
		r.Close()
	}
}

// checkNoGoroutineLeak fails t unless the goroutine count is back to
// before within a second: a writer goroutine that outlived its call
// would be blocked for good.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// lineReader hands out one line per Read. Before line at it calls hook,
// and fails the Read with hook's error if it returns one.
type lineReader struct {
	lines []string
	n, at int
	hook  func() error
}

func (r *lineReader) Read(p []byte) (int, error) {
	if r.n == r.at {
		if err := r.hook(); err != nil {
			return 0, err
		}
	}
	if r.n == len(r.lines) {
		return 0, io.EOF
	}
	n := copy(p, r.lines[r.n])
	r.n++
	return n, nil
}

// ingestResult is what ingestUntilFailure saw.
type ingestResult struct {
	added     int   // what IngestJSONL returned
	err       error // what IngestJSONL returned
	committed int   // the store's document count once it returned
	sent      []corpus.Document
	held      []corpus.Document // what the reopened store holds
	torn      []TornSegment     // what reopening found uncommitted
}

// ingestUntilFailure ingests 8 documents at 3 per segment through a
// reader whose hook runs before line at+1, then reopens the store. It
// also checks that IngestJSONL leaves no goroutine behind.
func ingestUntilFailure(t *testing.T, at int, hook func(s *Store) error) ingestResult {
	t.Helper()
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf, testDocs(8, "ing-"), true); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var res ingestResult
	var err error
	if res.sent, err = corpus.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	s := buildStore(t, dir)
	r := &lineReader{lines: lines, at: at, hook: func() error { return hook(s) }}
	before := runtime.NumGoroutine()
	res.added, _, res.err = IngestJSONL(s, r, 3)
	checkNoGoroutineLeak(t, before)
	res.committed = s.Docs()
	s.Close()
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	res.held = scanAll(t, reopened)
	res.torn = reopened.Recovery().Torn
	return res
}

// checkCommittedPrefix asserts what holds at any timing after a failed
// ingest: added is the committed document count and the reopened
// store's, it is a whole number of 3-document segments, those are the
// first documents sent, and no uncommitted segment reached the disk.
func checkCommittedPrefix(t *testing.T, res ingestResult) {
	t.Helper()
	if res.added != res.committed || res.added != len(res.held) || res.added%3 != 0 {
		t.Fatalf("added = %d, committed %d, reopened store holds %d; want equal and whole segments",
			res.added, res.committed, len(res.held))
	}
	docsEqual(t, res.sent[:res.added], res.held)
	if len(res.torn) != 0 {
		t.Fatalf("uncommitted segments reached the disk: %+v", res.torn)
	}
}

// TestIngestJSONLReadErrorKeepsCommittedPrefix: a read that fails after
// 7 lines leaves the two full segments committed (6 documents), drops
// the partial third, and reports added = 6.
func TestIngestJSONLReadErrorKeepsCommittedPrefix(t *testing.T) {
	boom := errors.New("disk on fire")
	res := ingestUntilFailure(t, 7, func(*Store) error { return boom })
	if !errors.Is(res.err, boom) {
		t.Fatalf("err = %v, want the read error", res.err)
	}
	if res.added != 6 {
		t.Fatalf("added = %d, want 6", res.added)
	}
	docsEqual(t, res.sent[:6], res.held)
	checkCommittedPrefix(t, res)
}

// TestIngestJSONLStoreErrorCountsCommittedSegments: when the append of
// the second segment fails, the first stays committed and added counts
// exactly its documents. Segments commit behind the read, so the hook
// waits for the first to publish before it closes the store; closing
// at once instead may beat any commit, but added still counts exactly
// what the store holds.
func TestIngestJSONLStoreErrorCountsCommittedSegments(t *testing.T) {
	res := ingestUntilFailure(t, 4, func(s *Store) error {
		for deadline := time.Now().Add(10 * time.Second); s.Docs() < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return errors.New("the first segment never published")
			}
		}
		return s.Close()
	})
	if !errors.Is(res.err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", res.err)
	}
	if res.added != 3 {
		t.Fatalf("added = %d, want 3", res.added)
	}
	docsEqual(t, res.sent[:3], res.held)
	checkCommittedPrefix(t, res)

	for at := 0; at <= 8; at++ {
		res := ingestUntilFailure(t, at, func(s *Store) error { return s.Close() })
		if !errors.Is(res.err, ErrClosed) {
			t.Fatalf("close before line %d: err = %v, want ErrClosed", at+1, res.err)
		}
		checkCommittedPrefix(t, res)
	}
}
