package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The report is the same at any worker count, as the command's doc
// comment promises: each seed is an independent run and rows stay in
// seed order.
func TestReportIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "seedsweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building seedsweep: %v\n%s", err, out)
	}
	sweep := func(workers string) []byte {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-n", "2", "-scale", "quick", "-workers", workers)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-workers %s: %v\n%s", workers, err, stderr.Bytes())
		}
		return stdout.Bytes()
	}
	one, two := sweep("1"), sweep("2")
	for _, row := range []string{"\n1 ", "\n2 ", "\nmean "} {
		if !strings.Contains(string(one), row) {
			t.Fatalf("-workers 1 report has no %q row:\n%s", row[1:], one)
		}
	}
	if !bytes.Equal(one, two) {
		t.Errorf("-workers 1 and -workers 2 reports differ:\n%s\n---\n%s", one, two)
	}
}
