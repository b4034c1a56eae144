package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
)

// The scale every test generates at: ~2.6k documents, tens of
// milliseconds.
var (
	smallCfg   = corpus.Config{Seed: 3, VolumeScale: 1000000, PositiveScale: 200}
	smallFlags = []string{"-seed", "3", "-volume-scale", "1000000", "-positive-scale", "200", "-blog-scale", "200"}
)

const smallBlogScale = 200

// buildCorpusgen compiles the binary under test.
func buildCorpusgen(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "corpusgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building corpusgen: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running corpusgen %v: %v", args, err)
	}
	return out.Bytes(), errb.Bytes(), cmd.ProcessState.ExitCode()
}

// wantDocs is what the library generates at the small scale, in
// corpusgen's emit order, reduced to what JSONL carries: without truth
// no labels at all, with it only the two booleans.
func wantDocs(truth bool) []corpus.Document {
	gen := corpus.NewGenerator(smallCfg)
	corpora := gen.Generate()
	corpora[corpus.Blogs] = gen.GenerateBlogs(corpus.DefaultBlogSpecs(smallBlogScale))
	var docs []corpus.Document
	for _, ds := range datasets {
		for _, d := range corpora[ds].Docs {
			full := d.Truth
			d.Truth = corpus.GroundTruth{}
			if truth {
				d.Truth.IsCTH, d.Truth.IsDox = full.IsCTH, full.IsDox
			}
			docs = append(docs, d)
		}
	}
	return docs
}

// TestCorpusgen drives one build of the binary through its three
// surfaces: JSONL on stdout, the -store write path, and flag validation.
func TestCorpusgen(t *testing.T) {
	bin := buildCorpusgen(t)
	t.Run("stdout is the generated corpus", func(t *testing.T) { testStdout(t, bin) })
	t.Run("store holds every emitted document", func(t *testing.T) { testStore(t, bin) })
	t.Run("unknown dataset is rejected", func(t *testing.T) { testUnknownDataset(t, bin) })
}

func testStdout(t *testing.T, bin string) {
	for _, truth := range []bool{false, true} {
		args := smallFlags
		if truth {
			args = append(slices.Clone(smallFlags), "-truth")
		}
		stdout, stderr, code := run(t, bin, args...)
		if code != 0 {
			t.Fatalf("truth=%v: exit %d, stderr %q", truth, code, stderr)
		}
		got, err := corpus.ReadJSONL(bytes.NewReader(stdout))
		if err != nil {
			t.Fatalf("truth=%v: %v", truth, err)
		}
		want := wantDocs(truth)
		if len(got) != len(want) {
			t.Fatalf("truth=%v: %d documents on stdout, generator makes %d", truth, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("truth=%v: document %d = %+v, want %+v", truth, i, got[i], want[i])
			}
		}

		again, _, _ := run(t, bin, args...)
		if !bytes.Equal(stdout, again) {
			t.Errorf("truth=%v: two runs at one seed differ", truth)
		}
	}
}

func testStore(t *testing.T, bin string) {
	stdout, _, _ := run(t, bin, smallFlags...)
	lines := bytes.Count(stdout, []byte("\n"))

	dir := filepath.Join(t.TempDir(), "store")
	if _, stderr, code := run(t, bin, append([]string{"-store", dir}, smallFlags...)...); code != 0 {
		t.Fatalf("-store: exit %d, stderr %q", code, stderr)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Docs() != lines {
		t.Errorf("store holds %d documents, stdout had %d lines", s.Docs(), lines)
	}
}

func testUnknownDataset(t *testing.T, bin string) {
	stdout, stderr, code := run(t, bin, "-dataset", "nope")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(string(stderr), `"nope"`) {
		t.Errorf("stderr %q does not name the dataset", stderr)
	}
	if len(stdout) != 0 {
		t.Errorf("stdout has %d bytes, want none", len(stdout))
	}
}
