package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harassrepro/internal/detector"
)

// Hardening suite: detector.Load over corrupt, truncated and
// partially-written model directories must always return a descriptive
// error — never panic, nil-deref or hand back a broken detector.

// The files of a model directory (detector.ModelFiles).
const (
	vocabFile = "vocab.txt"
	doxFile   = "dox.model"
	cthFile   = "cth.model"
	metaFile  = "meta.json"
)

// validMeta is a metadata file consistent with tiny valid models.
const validMeta = `{"version":1,"buckets":16,"dox_text_len":512,"cth_text_len":128,
"dox_thresholds":{"boards":0.9},"cth_thresholds":{"boards":0.8}}`

// writeDir creates a model directory with the given file contents.
func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// loadMustFail asserts detector.Load errors without panicking.
func loadMustFail(t *testing.T, dir, label string) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: detector.Load panicked: %v", label, r)
		}
	}()
	d, err := detector.Load(dir)
	if err == nil {
		t.Fatalf("%s: detector.Load accepted a corrupt directory (detector %v)", label, d != nil)
	}
	if err.Error() == "" {
		t.Fatalf("%s: empty error message", label)
	}
	return err
}

func TestLoadDetectorGarbageDirectories(t *testing.T) {
	garbage := []byte("\x00\xff\x13garbage bytes not a model\x00\x01")
	cases := map[string]map[string][]byte{
		"missing everything": {},
		"meta only":          {metaFile: []byte(validMeta)},
		"all empty files": {
			metaFile: {}, vocabFile: {}, doxFile: {}, cthFile: {},
		},
		"all garbage": {
			metaFile: garbage, vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
		"valid meta, garbage models": {
			metaFile: []byte(validMeta), vocabFile: []byte("hello\nworld\n"),
			doxFile: garbage, cthFile: garbage,
		},
		"valid meta, empty models": {
			metaFile: []byte(validMeta), vocabFile: []byte("hello\nworld\n"),
			doxFile: {}, cthFile: {},
		},
		"empty vocabulary": {
			metaFile: []byte(validMeta), vocabFile: {}, doxFile: garbage, cthFile: garbage,
		},
		"truncated meta": {
			metaFile: []byte(validMeta[:len(validMeta)/2]), vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
		"meta zero buckets": {
			metaFile: []byte(`{"version":1,"buckets":0,"dox_text_len":512,"cth_text_len":128}`), vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
		"meta negative span length": {
			metaFile: []byte(`{"version":1,"buckets":16,"dox_text_len":-5,"cth_text_len":128}`), vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
		"meta threshold out of range": {
			metaFile: []byte(`{"version":1,"buckets":16,"dox_text_len":512,"cth_text_len":128,"dox_thresholds":{"boards":7.5}}`), vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
		"meta null json": {
			metaFile: []byte(`null`), vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
		"meta empty object": {
			metaFile: []byte(`{}`), vocabFile: garbage, doxFile: garbage, cthFile: garbage,
		},
	}
	for label, files := range cases {
		loadMustFail(t, writeDir(t, files), label)
	}
}

func TestLoadDetectorEmptyVocabularyNamed(t *testing.T) {
	// An empty vocab would tokenize everything to [UNK] and silently
	// produce meaningless scores; the error must name the artifact.
	garbage := []byte("\x00garbage\x01")
	dir := writeDir(t, map[string][]byte{
		metaFile: []byte(validMeta), vocabFile: []byte("\n\n\n"),
		doxFile: garbage, cthFile: garbage,
	})
	err := loadMustFail(t, dir, "blank-lines vocabulary")
	if !strings.Contains(err.Error(), vocabFile) {
		t.Errorf("error does not name %s: %v", vocabFile, err)
	}
}

func TestValidateModelDirNamesEveryMissingFile(t *testing.T) {
	// The up-front check must enumerate every absent artifact in one
	// error, not fail piecemeal on the first open.
	cases := []struct {
		label   string
		present map[string][]byte
		missing []string
	}{
		{"empty dir", map[string][]byte{}, []string{vocabFile, doxFile, cthFile, metaFile}},
		{"meta only", map[string][]byte{metaFile: []byte(validMeta)}, []string{vocabFile, doxFile, cthFile}},
		{"models missing", map[string][]byte{metaFile: []byte(validMeta), vocabFile: []byte("a\nb\n")}, []string{doxFile, cthFile}},
		{"one model missing", map[string][]byte{metaFile: []byte(validMeta), vocabFile: []byte("a\nb\n"), doxFile: []byte("x")}, []string{cthFile}},
	}
	for _, tc := range cases {
		dir := writeDir(t, tc.present)
		err := detector.ValidateModelDir(dir)
		if err == nil {
			t.Fatalf("%s: detector.ValidateModelDir accepted an incomplete directory", tc.label)
		}
		for _, name := range tc.missing {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error does not name missing %s: %v", tc.label, name, err)
			}
		}
		for name := range tc.present {
			if strings.Contains(err.Error(), name) {
				t.Errorf("%s: error names present file %s: %v", tc.label, name, err)
			}
		}
		// detector.Load must surface the same up-front diagnosis.
		if lerr := loadMustFail(t, dir, tc.label); !strings.Contains(lerr.Error(), tc.missing[0]) {
			t.Errorf("%s: detector.Load error does not name %s: %v", tc.label, tc.missing[0], lerr)
		}
	}
	if err := detector.ValidateModelDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("detector.ValidateModelDir accepted a missing directory")
	}
}

func TestLoadDetectorTruncatedModels(t *testing.T) {
	// Build one real model directory, then truncate each artifact in
	// turn: every truncation must be caught at load time.
	p := sharedPipeline(t)
	src := t.TempDir()
	if err := p.SaveModels(src); err != nil {
		t.Fatal(err)
	}
	for _, victim := range []string{metaFile, doxFile, cthFile} {
		dir := t.TempDir()
		for _, f := range []string{metaFile, vocabFile, doxFile, cthFile} {
			data, err := os.ReadFile(filepath.Join(src, f))
			if err != nil {
				t.Fatal(err)
			}
			if f == victim {
				data = data[:len(data)/3]
			}
			if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		loadMustFail(t, dir, "truncated "+victim)
	}
}

func TestLoadDetectorMismatchedModels(t *testing.T) {
	// Models trained at a different feature-space size than the
	// metadata claims: a partially-overwritten release directory.
	p := sharedPipeline(t)
	src := t.TempDir()
	if err := p.SaveModels(src); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"buckets": 65536`, `"buckets": 1024`, 1)
	if tampered == string(data) {
		t.Skip("meta bucket count not in expected form")
	}
	if err := os.WriteFile(filepath.Join(src, metaFile), []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	err = loadMustFail(t, src, "bucket mismatch")
	if !strings.Contains(err.Error(), "buckets") {
		t.Errorf("error does not mention buckets: %v", err)
	}
}
