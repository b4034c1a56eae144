package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"harassrepro/internal/core"
)

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running harassrepro %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestFlags drives one build of the binary through the experiment list
// and its two ways of refusing a run.
func TestFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "harassrepro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building harassrepro: %v\n%s", err, out)
	}

	t.Run("list names every experiment", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, "-list")
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
		exps := core.Experiments()
		if len(lines) != len(exps) {
			t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(exps), stdout)
		}
		for i, e := range exps {
			if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
				t.Errorf("line %d %q does not list %s", i+1, lines[i], e.ID)
			}
		}
	})

	t.Run("unknown scale", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, "-scale", "huge")
		if code != 2 || !strings.Contains(stderr, `"huge"`) || stdout != "" {
			t.Errorf("exit %d, stderr %q, stdout %q; want exit 2 naming the scale", code, stderr, stdout)
		}
	})

	t.Run("unknown experiment", func(t *testing.T) {
		_, stderr, code := run(t, bin, "-scale", "quick", "-experiment", "table99")
		if code == 0 || !strings.Contains(stderr, "table99") {
			t.Errorf("exit %d, stderr %q; want a failure naming the experiment", code, stderr)
		}
	})
}
