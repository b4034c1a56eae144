package store

import (
	"errors"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/taxonomy"
)

// testDocs returns a small deterministic batch exercising every field,
// including ground truth.
func testDocs(n int, prefix string) []corpus.Document {
	docs := make([]corpus.Document, n)
	for i := range docs {
		docs[i] = corpus.Document{
			ID:          prefix + string(rune('a'+i%26)),
			Dataset:     corpus.Boards,
			Platform:    corpus.PlatformBoards,
			Domain:      "board-01.example",
			ThreadID:    "t-1",
			PosInThread: i,
			ThreadSize:  n,
			Author:      "anon123",
			Date:        "2020-08-01",
			Text:        "we should Mass-Report his channel, спасибо #42",
		}
		if i%3 == 0 {
			docs[i].Truth = corpus.GroundTruth{
				IsCTH:        true,
				CTHLabel:     taxonomy.NewLabel(taxonomy.SubDoxing, taxonomy.SubRaiding),
				TargetID:     i,
				TargetGender: gender.Female,
			}
		}
		if i%4 == 0 {
			docs[i].Truth.IsDox = true
			docs[i].Truth.DoxPII = []pii.Type{pii.Phone, pii.Email}
		}
	}
	return docs
}

// docsEqual compares documents including ground truth. Labels compare
// by canonical sub list, since Label holds an unexported map.
func docsEqual(t *testing.T, want, got []corpus.Document) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("doc count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(w.Truth.CTHLabel.Subs(), g.Truth.CTHLabel.Subs()) {
			t.Fatalf("doc %d: label want %v, got %v", i, w.Truth.CTHLabel.Subs(), g.Truth.CTHLabel.Subs())
		}
		w.Truth.CTHLabel, g.Truth.CTHLabel = taxonomy.Label{}, taxonomy.Label{}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("doc %d:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

func scanAll(t *testing.T, s *Store) []corpus.Document {
	t.Helper()
	var out []corpus.Document
	if err := s.Scan(func(d *corpus.Document, _ DocRef) error {
		out = append(out, *d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := testDocs(7, "b1-")
	batch2 := testDocs(5, "b2-")
	if _, err := s.Append(batch1); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation after first append = %d", g)
	}
	if _, err := s.Append(batch2); err != nil {
		t.Fatal(err)
	}
	want := append(append([]corpus.Document(nil), batch1...), batch2...)
	docsEqual(t, want, scanAll(t, s))

	// Reopen: same contents, same generation, no recovery events.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if g := r.Generation(); g != 2 {
		t.Fatalf("generation after reopen = %d", g)
	}
	if len(r.Recovery().Torn) != 0 {
		t.Fatalf("unexpected recovery: %+v", r.Recovery())
	}
	docsEqual(t, want, scanAll(t, r))
	if r.Docs() != len(want) {
		t.Fatalf("Docs() = %d, want %d", r.Docs(), len(want))
	}
}

func TestStoreDocRandomAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := testDocs(9, "ra-")
	if err := s.AppendAll(docs, 4); err != nil { // 3 segments: 4+4+1
		t.Fatal(err)
	}
	if got := len(s.Segments()); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	var refs []DocRef
	if err := s.Scan(func(_ *corpus.Document, ref DocRef) error {
		refs = append(refs, ref)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		d, err := s.Doc(ref)
		if err != nil {
			t.Fatalf("Doc(%+v): %v", ref, err)
		}
		if d.ID != docs[i].ID {
			t.Fatalf("Doc(%+v).ID = %q, want %q", ref, d.ID, docs[i].ID)
		}
	}
	if _, err := s.Doc(DocRef{Segment: 99}); err == nil {
		t.Fatal("out-of-range segment succeeded")
	}
	if _, err := s.Doc(DocRef{Segment: 0, Ordinal: 99}); err == nil {
		t.Fatal("out-of-range ordinal succeeded")
	}
}

// TestLookupMatchesNaiveScan differentially tests the inverted index:
// for every token of every document, Lookup must return exactly the
// refs a full scan + retokenize finds.
func TestLookupMatchesNaiveScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := testDocs(10, "lk-")
	docs[2].Text = "totally unique pangram xylophone"
	docs[7].Text = "xylophone duet tonight"
	if err := s.AppendAll(docs, 3); err != nil {
		t.Fatal(err)
	}

	// Oracle: token → refs via scan.
	oracle := map[string][]DocRef{}
	if err := s.Scan(func(d *corpus.Document, ref DocRef) error {
		seen := map[string]bool{}
		indexTokens(d, func(tok string) {
			if !seen[tok] {
				seen[tok] = true
				oracle[tok] = append(oracle[tok], ref)
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(oracle) == 0 {
		t.Fatal("oracle found no tokens")
	}
	for tok, want := range oracle {
		var got []DocRef
		s.Lookup(tok, func(ref DocRef) bool {
			got = append(got, ref)
			return true
		})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Lookup(%q) = %v, want %v", tok, got, want)
		}
	}
	// Case folding: queries arrive in any case.
	var upper, lower int
	s.Lookup("XYLOPHONE", func(DocRef) bool { upper++; return true })
	s.Lookup("xylophone", func(DocRef) bool { lower++; return true })
	if upper != 2 || lower != 2 {
		t.Fatalf("xylophone lookups = %d/%d, want 2/2", upper, lower)
	}
	// Absent token.
	s.Lookup("definitely-not-a-token-q9z", func(DocRef) bool {
		t.Fatal("absent token produced a ref")
		return false
	})
	// LookupDocs fetches the right documents.
	var ids []string
	if err := s.LookupDocs("xylophone", func(d *corpus.Document, _ DocRef) error {
		ids = append(ids, d.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{docs[2].ID, docs[7].ID}) {
		t.Fatalf("LookupDocs ids = %v", ids)
	}
}

func TestFieldTermLookup(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := testDocs(6, "ft-")
	docs[3].Platform = corpus.PlatformGab
	docs[3].Dataset = corpus.Gab
	if err := s.AppendAll(docs, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Lookup("platform:gab", func(ref DocRef) bool { n++; return true })
	if n != 1 {
		t.Fatalf("platform:gab matches = %d, want 1", n)
	}
	n = 0
	s.Lookup("dataset:boards", func(ref DocRef) bool { n++; return true })
	if n != 5 {
		t.Fatalf("dataset:boards matches = %d, want 5", n)
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir); err == nil {
		t.Fatal("second Create succeeded")
	}
}

func TestOpenMissingStore(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope"))
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

func TestReadManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testDocs(3, "rm-")); err != nil {
		t.Fatal(err)
	}
	gen, segs, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || len(segs) != 1 || segs[0].Docs != 3 {
		t.Fatalf("ReadManifest = gen %d, segs %+v", gen, segs)
	}
}

func TestIngestJSONL(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := `{"text":"first ingested doc","platform":"gab"}` + "\n" +
		`{broken json` + "\n" +
		`{"text":"second ingested doc"}` + "\n"
	added, bad, err := IngestJSONL(s, strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	if len(bad) != 1 || bad[0].Line != 2 || bad[0].Offset != 47 {
		t.Fatalf("bad = %+v, want line 2 at byte 47", bad)
	}
	got := scanAll(t, s)
	if len(got) != 2 || got[0].Text != "first ingested doc" {
		t.Fatalf("store holds %+v", got)
	}
	// Ingested docs are indexed like generated ones.
	n := 0
	s.Lookup("ingested", func(DocRef) bool { n++; return true })
	if n != 2 {
		t.Fatalf("ingested token matches = %d, want 2", n)
	}
}

// TestAppendDeterminism pins the byte-identity property everything
// else builds on: the same documents appended the same way produce
// identical files.
func TestAppendDeterminism(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		s, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendAll(testDocs(11, "det-"), 4); err != nil {
			t.Fatal(err)
		}
	}
	compareStoreDirs(t, dirs[0], dirs[1])
}
