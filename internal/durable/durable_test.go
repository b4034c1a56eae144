package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCommitReplacesAndLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	for _, v := range []string{"one", "two"} {
		if err := Commit(dir, "MANIFEST.json", []byte(v)); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, filepath.Join(dir, "MANIFEST.json")); got != v {
			t.Fatalf("manifest = %q, want %q", got, v)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("tmp left after commit: %v", err)
	}
}

func TestCommitFailedRenameRemovesTmp(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory where the file should go makes the rename
	// fail after the tmp was written.
	if err := os.MkdirAll(filepath.Join(dir, "MANIFEST.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Commit(dir, "MANIFEST.json", []byte("v")); err == nil {
		t.Fatal("commit over a directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("tmp left after failed rename: %v", err)
	}
}

func TestRemoveStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if err := RemoveStaleTmp(dir, "MANIFEST.json"); err != nil {
		t.Fatalf("no tmp: %v", err)
	}
	tmp := filepath.Join(dir, "MANIFEST.json.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RemoveStaleTmp(dir, "MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived: %v", err)
	}
}

// TestQuarantineNeverOverwrites: files of one name quarantined twice,
// moved or written, both survive with their contents.
func TestQuarantineNeverOverwrites(t *testing.T) {
	dir := t.TempDir()
	var moved []string
	for _, v := range []string{"first crash", "second crash"} {
		if err := os.WriteFile(filepath.Join(dir, "seg-2.seg"), []byte(v), 0o644); err != nil {
			t.Fatal(err)
		}
		name, err := Quarantine(dir, "seg-2.seg")
		if err != nil {
			t.Fatal(err)
		}
		moved = append(moved, name)
	}
	var written []string
	for _, v := range []string{"first salvage", "second salvage"} {
		name, err := QuarantineFile(dir, "seg-2.salvaged.jsonl", []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, name)
	}
	q := filepath.Join(dir, QuarantineDir)
	for _, c := range []struct{ name, want, content string }{
		{moved[0], "seg-2.seg", "first crash"},
		{moved[1], "seg-2.seg.1", "second crash"},
		{written[0], "seg-2.salvaged.jsonl", "first salvage"},
		{written[1], "seg-2.salvaged.jsonl.1", "second salvage"},
	} {
		if c.name != c.want {
			t.Errorf("quarantined as %q, want %q", c.name, c.want)
		}
		if got := readFile(t, filepath.Join(q, c.want)); got != c.content {
			t.Errorf("%s holds %q, want %q", c.want, got, c.content)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-2.seg")); !os.IsNotExist(err) {
		t.Errorf("source left in place: %v", err)
	}
}

func TestSyncTree(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "a"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SyncTree(dir); err != nil {
		t.Fatal(err)
	}
	if err := SyncTree(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncTree of a missing directory succeeded")
	}
}
