package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/durable"
)

// The crash model: Append writes seg-N.seg, then seg-N.idx, then
// commits the manifest rename. A crash at any byte of that sequence
// leaves files the manifest never committed. These tests reconstruct
// every such state — the tail segment truncated or bit-flipped at
// every byte boundary — and assert the three recovery invariants:
//
//  1. reopen succeeds and every committed record is intact;
//  2. the torn tail is quarantined, with every fully-landed record
//     salvaged;
//  3. re-appending the interrupted batch yields a store byte-identical
//     to one that never crashed.

// listStoreFiles returns relative paths of all files under dir,
// excluding the quarantine area (diagnostics, not store state).
func listStoreFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			if rel == durable.QuarantineDir {
				return filepath.SkipDir
			}
			return nil
		}
		out = append(out, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// compareStoreDirs asserts two store directories are byte-identical
// outside quarantine/.
func compareStoreDirs(t *testing.T, want, got string) {
	t.Helper()
	wf, gf := listStoreFiles(t, want), listStoreFiles(t, got)
	if strings.Join(wf, "\n") != strings.Join(gf, "\n") {
		t.Fatalf("file sets differ:\nwant %v\ngot  %v", wf, gf)
	}
	for _, rel := range wf {
		wb, err := os.ReadFile(filepath.Join(want, rel))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(got, rel))
		if err != nil {
			t.Fatal(err)
		}
		if string(wb) != string(gb) {
			t.Fatalf("%s differs (%d vs %d bytes)", rel, len(wb), len(gb))
		}
	}
}

// buildStore creates a store in dir and appends each batch.
func buildStore(t *testing.T, dir string, batches ...[]corpus.Document) *Store {
	t.Helper()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// crashState reconstructs dir as "crashed mid-append of batchB after
// committing batchA": the committed prefix plus a damaged tail segment
// file produced by damage(fullSegBytes).
func crashState(t *testing.T, dir string, batchA, batchB []corpus.Document, withIdx bool, damage func([]byte) []byte) {
	t.Helper()
	buildStore(t, dir, batchA).Close()

	// The tail segment's uninterrupted bytes, reproduced deterministically.
	tmp := t.TempDir()
	full := buildStore(t, tmp, batchA, batchB)
	full.Close()
	segBytes, err := os.ReadFile(filepath.Join(tmp, "seg-00000002"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002"+segSuffix), damage(segBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	if withIdx {
		idxBytes, err := os.ReadFile(filepath.Join(tmp, "seg-00000002"+idxSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000002"+idxSuffix), idxBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recordBoundaries returns the byte offset after each complete record
// in a segment file (header included as offset segHeaderSz).
func recordBoundaries(t *testing.T, seg []byte) []int {
	t.Helper()
	if err := checkSegHeader(seg); err != nil {
		t.Fatal(err)
	}
	bounds := []int{segHeaderSz}
	pos := segHeaderSz
	for pos < len(seg) {
		_, n, err := decodeRecord(seg[pos:])
		if err != nil {
			t.Fatal(err)
		}
		pos += n
		bounds = append(bounds, pos)
	}
	return bounds
}

// salvagedAt returns how many of batchB's records are fully present in
// a tail segment truncated at byte k.
func salvagedAt(bounds []int, k int) int {
	n := 0
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= k {
			n = i
		}
	}
	return n
}

func TestRecoveryTruncatedTailEveryByte(t *testing.T) {
	batchA := testDocs(4, "a-")
	batchB := testDocs(3, "b-")

	// Reference: the uninterrupted store, and the tail segment's bytes.
	fullDir := t.TempDir()
	buildStore(t, fullDir, batchA, batchB).Close()
	segBytes, err := os.ReadFile(filepath.Join(fullDir, "seg-00000002"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBoundaries(t, segBytes)
	wantDocs := append(append([]corpus.Document(nil), batchA...), batchB...)

	for k := 0; k <= len(segBytes); k++ {
		k := k
		t.Run(fmt.Sprintf("trunc-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			crashState(t, dir, batchA, batchB, false, func(b []byte) []byte { return b[:k] })

			s, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			// Invariant 1: every committed record intact.
			docsEqual(t, batchA, scanAll(t, s))

			// Invariant 2: the torn tail quarantined, fully-landed
			// records salvaged. (At k == len(segBytes) the segment is
			// complete but uncommitted — still torn, all docs salvaged.)
			rec := s.Recovery()
			if len(rec.Torn) != 1 || rec.Torn[0].Name != "seg-00000002" {
				t.Fatalf("recovery = %+v", rec)
			}
			wantSalvaged := salvagedAt(bounds, k)
			if rec.Torn[0].SalvagedDocs != wantSalvaged {
				t.Fatalf("salvaged %d docs at trunc %d, want %d", rec.Torn[0].SalvagedDocs, k, wantSalvaged)
			}
			if _, err := os.Stat(filepath.Join(dir, "seg-00000002"+segSuffix)); err == nil {
				t.Fatal("torn segment file still present after quarantine")
			}

			// Invariant 3: re-appending the batch reproduces the
			// uninterrupted store byte for byte.
			if _, err := s.Append(batchB); err != nil {
				t.Fatalf("re-append: %v", err)
			}
			s.Close()
			compareStoreDirs(t, fullDir, dir)

			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			docsEqual(t, wantDocs, scanAll(t, r))
		})
	}
}

func TestRecoveryCorruptTailEveryByte(t *testing.T) {
	batchA := testDocs(4, "a-")
	batchB := testDocs(3, "b-")

	fullDir := t.TempDir()
	buildStore(t, fullDir, batchA, batchB).Close()
	segBytes, err := os.ReadFile(filepath.Join(fullDir, "seg-00000002"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBoundaries(t, segBytes)

	for k := 0; k < len(segBytes); k++ {
		k := k
		t.Run(fmt.Sprintf("flip-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			crashState(t, dir, batchA, batchB, true, func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[k] ^= 0xA5
				return out
			})

			s, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			docsEqual(t, batchA, scanAll(t, s))
			rec := s.Recovery()
			if len(rec.Torn) != 1 {
				t.Fatalf("recovery = %+v", rec)
			}
			// A flip inside record i destroys i (and may desynchronize
			// everything after): the salvaged prefix is exactly the
			// records strictly before the flipped byte. A flip in a
			// record's zero padding is also detected (nonzero pad fails
			// validation), so the count never over-reports.
			wantSalvaged := salvagedAt(bounds, k)
			if rec.Torn[0].SalvagedDocs > len(batchB) || rec.Torn[0].SalvagedDocs < wantSalvaged-1 {
				t.Fatalf("salvaged %d docs at flip %d (prefix bound %d)", rec.Torn[0].SalvagedDocs, k, wantSalvaged)
			}
			if k >= segHeaderSz && rec.Torn[0].SalvagedDocs > wantSalvaged {
				t.Fatalf("salvaged %d docs at flip %d, prefix has only %d intact", rec.Torn[0].SalvagedDocs, k, wantSalvaged)
			}

			if _, err := s.Append(batchB); err != nil {
				t.Fatalf("re-append: %v", err)
			}
			s.Close()
			compareStoreDirs(t, fullDir, dir)
		})
	}
}

// TestRecoveryCrashBetweenIdxAndManifest covers the widest crash
// window: both tail files fully written but never committed.
func TestRecoveryCrashBetweenIdxAndManifest(t *testing.T) {
	batchA := testDocs(4, "a-")
	batchB := testDocs(3, "b-")
	fullDir := t.TempDir()
	buildStore(t, fullDir, batchA, batchB).Close()

	dir := t.TempDir()
	crashState(t, dir, batchA, batchB, true, func(b []byte) []byte { return b })
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recovery()
	if len(rec.Torn) != 1 || rec.Torn[0].SalvagedDocs != len(batchB) || rec.Torn[0].Cause != "" {
		t.Fatalf("recovery = %+v", rec)
	}
	// Both files went to quarantine, plus the salvage dump.
	wantFiles := []string{"seg-00000002.salvaged.jsonl", "seg-00000002.idx", "seg-00000002.seg"}
	if len(rec.Torn[0].Files) != 3 {
		t.Fatalf("quarantined files = %v, want %v", rec.Torn[0].Files, wantFiles)
	}
	// The salvage dump holds the full batch, with truth.
	f, err := os.Open(filepath.Join(dir, durable.QuarantineDir, "seg-00000002.salvaged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	salvaged, err := corpus.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != len(batchB) || salvaged[0].ID != batchB[0].ID {
		t.Fatalf("salvage dump: %d docs", len(salvaged))
	}
	if !salvaged[0].Truth.IsCTH {
		t.Fatal("salvage dump lost ground truth")
	}

	if _, err := s.Append(batchB); err != nil {
		t.Fatal(err)
	}
	s.Close()
	compareStoreDirs(t, fullDir, dir)
}

// TestRecoveryRepeatCrashKeepsEarlierEvidence: segment names repeat
// after a recovery (seg-N is the committed count + 1), so two crashes
// mid-append tear the same name. The second recovery must quarantine
// beside the first, leaving both salvage dumps and every document they
// hold.
func TestRecoveryRepeatCrashKeepsEarlierEvidence(t *testing.T) {
	batchA := testDocs(4, "a-")
	first, second := testDocs(3, "b-"), testDocs(2, "c-")
	dir := t.TempDir()
	crashState(t, dir, batchA, first, true, func(b []byte) []byte { return b })
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The second crash tears the same segment name with another batch.
	tmp := t.TempDir()
	buildStore(t, tmp, batchA, second).Close()
	segBytes, err := os.ReadFile(filepath.Join(tmp, "seg-00000002"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002"+segSuffix), segBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := s.Recovery()
	wantFiles := []string{"seg-00000002.salvaged.jsonl.1", "seg-00000002.seg.1"}
	if len(rec.Torn) != 1 || rec.Torn[0].SalvagedDocs != len(second) || strings.Join(rec.Torn[0].Files, " ") != strings.Join(wantFiles, " ") {
		t.Fatalf("second recovery = %+v, want files %v", rec, wantFiles)
	}

	var got []string
	for _, name := range []string{"seg-00000002.salvaged.jsonl", "seg-00000002.salvaged.jsonl.1"} {
		f, err := os.Open(filepath.Join(dir, durable.QuarantineDir, name))
		if err != nil {
			t.Fatal(err)
		}
		docs, err := corpus.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			got = append(got, d.ID)
		}
	}
	var want []string
	for _, d := range append(append([]corpus.Document(nil), first...), second...) {
		want = append(want, d.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("salvaged ids %v, want %v", got, want)
	}
	for _, name := range []string{"seg-00000002.seg", "seg-00000002.idx", "seg-00000002.seg.1"} {
		if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDir, name)); err != nil {
			t.Errorf("quarantined %s: %v", name, err)
		}
	}
}

// TestCommittedCorruptionIsAnError distinguishes the torn-tail path
// (recoverable) from damage to committed data (loud failure).
func TestCommittedCorruptionIsAnError(t *testing.T) {
	t.Run("seg-byte-flip", func(t *testing.T) {
		dir := t.TempDir()
		buildStore(t, dir, testDocs(5, "c-")).Close()
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
		err = s.Scan(func(*corpus.Document, DocRef) error { return nil })
		var ce *CorruptError
		if err == nil || !errors.As(err, &ce) || ce.Segment != "seg-00000001" {
			t.Fatalf("scan err = %v", err)
		}
	})
	t.Run("seg-truncated", func(t *testing.T) {
		dir := t.TempDir()
		buildStore(t, dir, testDocs(5, "c-")).Close()
		path := filepath.Join(dir, "seg-00000001"+segSuffix)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Open(dir); err == nil || !errors.As(err, &ce) {
			t.Fatalf("open err = %v", err)
		}
	})
	t.Run("idx-byte-flip", func(t *testing.T) {
		dir := t.TempDir()
		buildStore(t, dir, testDocs(5, "c-")).Close()
		path := filepath.Join(dir, "seg-00000001"+idxSuffix)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Open(dir); err == nil || !errors.As(err, &ce) {
			t.Fatalf("open err = %v", err)
		}
	})
}
