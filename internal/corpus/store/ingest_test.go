package store

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

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

// TestIngestJSONLMatchesAppendAll: streaming ingest writes the segments
// AppendAll writes for the same good documents, byte for byte, and
// quarantines the same lines, at any segment size.
func TestIngestJSONLMatchesAppendAll(t *testing.T) {
	in := strings.Join(ingestLines(t, 10), "")
	for _, perSeg := range []int{1, 3, 0} {
		streamed, whole := t.TempDir(), t.TempDir()
		s, err := Create(streamed)
		if err != nil {
			t.Fatal(err)
		}
		added, bad, err := IngestJSONL(s, strings.NewReader(in), perSeg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()

		docs, wantBad, err := corpus.ReadJSONLLenient(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		ws := buildStore(t, whole)
		if err := ws.AppendAll(docs, perSeg); err != nil {
			t.Fatal(err)
		}
		ws.Close()
		if added != len(docs) || added != 10 {
			t.Fatalf("perSeg %d: added %d, want %d", perSeg, added, len(docs))
		}
		if len(bad) != 3 || len(bad) != len(wantBad) {
			t.Fatalf("perSeg %d: %d bad lines, want 3", perSeg, len(bad))
		}
		for i := range bad {
			if bad[i].Error() != wantBad[i].Error() {
				t.Fatalf("perSeg %d: bad line %v, want %v", perSeg, bad[i], wantBad[i])
			}
		}
		compareStoreDirs(t, whole, streamed)
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

// ingestUntilFailure ingests 8 documents at 3 per segment through a
// reader whose hook runs before line at+1, then reopens the store. It
// returns what IngestJSONL returned, the 8 documents as JSONL carries
// them, and what the reopened store holds.
func ingestUntilFailure(t *testing.T, at int, hook func(s *Store) error) (added int, err error, sent, held []corpus.Document) {
	t.Helper()
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf, testDocs(8, "ing-"), true); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if sent, err = corpus.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	s, cerr := Create(dir)
	if cerr != nil {
		t.Fatal(cerr)
	}
	r := &lineReader{lines: lines, at: at, hook: func() error { return hook(s) }}
	added, _, err = IngestJSONL(s, r, 3)
	s.Close()
	if s, err := Open(dir); err != nil {
		t.Fatal(err)
	} else {
		defer s.Close()
		held = scanAll(t, s)
	}
	return added, err, sent, held
}

// TestIngestJSONLReadErrorKeepsCommittedPrefix: a read that fails after
// 7 lines leaves the two full segments committed (6 documents), drops
// the partial third, and reports added = 6.
func TestIngestJSONLReadErrorKeepsCommittedPrefix(t *testing.T) {
	boom := errors.New("disk on fire")
	added, err, sent, held := ingestUntilFailure(t, 7, func(*Store) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the read error", err)
	}
	if added != 6 {
		t.Fatalf("added = %d, want 6", added)
	}
	docsEqual(t, sent[:6], held)
}

// TestIngestJSONLStoreErrorCountsCommittedSegments: when the append of
// the second segment fails, the first stays committed and added counts
// exactly its documents.
func TestIngestJSONLStoreErrorCountsCommittedSegments(t *testing.T) {
	added, err, sent, held := ingestUntilFailure(t, 4, func(s *Store) error { return s.Close() })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if added != 3 {
		t.Fatalf("added = %d, want 3", added)
	}
	docsEqual(t, sent[:3], held)
}
