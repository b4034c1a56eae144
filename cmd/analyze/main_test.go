package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildAnalyze compiles the binary under test.
func buildAnalyze(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "analyze")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building analyze: %v\n%s", err, out)
	}
	return bin
}

// run feeds stdin to the binary and returns stdout, stderr and the exit
// code.
func run(t *testing.T, bin, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(stdin)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running analyze %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// sample is four documents with known rule-based findings: one call to
// report a channel (the reporting cue, a male pronoun), one paste with
// two PII types (so a likely dox: a phone number and an email), one
// benign post and one post with a single email address.
const sample = `{"id":"a1","platform":"discord","text":"everyone mass report his channel until it gets banned"}
{"id":"a2","platform":"pastes","text":"name: jane roe, phone (212) 555-0142, email jane.roe@example.com"}
{"id":"a3","platform":"boards","text":"the weather in the city has been unusually warm this week"}
{"id":"a4","platform":"gab","text":"write to me at sam@example.org"}
`

func TestAnalyze(t *testing.T) {
	bin := buildAnalyze(t)

	t.Run("rules only", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, sample)
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		for _, want := range []string{
			"documents: 4\n",
			"flagged as calls to harassment: 1 (25.00%)\n",
			"documents with PII: 2; likely doxes: 1\n",
			"Reporting    100.00% (1)",
			"Inferred target gender: unknown 0 / female 0 / male 1\n",
			"email  2 ",
			"phone  1 ",
		} {
			if !strings.Contains(stdout, want) {
				t.Errorf("stdout lacks %q:\n%s", want, stdout)
			}
		}
	})

	// Classifiers only add flags to the rule-based ones and leave the
	// PII counts alone.
	t.Run("with models", func(t *testing.T) {
		models := filepath.Join("..", "..", "internal", "detector", "testdata", "quick-seed1")
		stdout, stderr, code := run(t, bin, sample, "-models", models)
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		for _, want := range []string{"documents: 4\n", "documents with PII: 2; likely doxes: "} {
			if !strings.Contains(stdout, want) {
				t.Errorf("stdout lacks %q:\n%s", want, stdout)
			}
		}
		if strings.Contains(stdout, "flagged as calls to harassment: 0 ") {
			t.Errorf("the classifiers unflagged the rule-based call:\n%s", stdout)
		}
	})

	t.Run("empty stdin", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, "")
		if code != 1 || !strings.Contains(stderr, "no documents on stdin") || stdout != "" {
			t.Errorf("exit %d, stderr %q, stdout %q; want exit 1 naming the empty input", code, stderr, stdout)
		}
	})
}
