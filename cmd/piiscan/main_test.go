package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"harassrepro/internal/corpus/store"
)

// TestTokenQuerySyntax pins the -token surface syntax the flag help
// promises: AND on commas, OR on |, -term exclusion, and the error
// cases (pure negation, negation inside an OR group).
func TestTokenQuerySyntax(t *testing.T) {
	for _, spec := range []string{
		"paste",
		"paste,email",
		" paste , email ,",
		"platform:gab, dox",
		"email|phone,paste",
		"paste,-email",
	} {
		if q, err := store.ParseQuery(spec); err != nil || q == nil {
			t.Fatalf("ParseQuery(%q) = %v, %v", spec, q, err)
		}
	}
	for _, spec := range []string{"", ",,", "-paste", "email|-phone"} {
		if _, err := store.ParseQuery(spec); err == nil {
			t.Fatalf("ParseQuery(%q) succeeded, want error", spec)
		}
	}
}

// TestOverCapLineIsDeadLettered: in -stream mode a stdin line over the
// 1 MiB line cap is one dead letter in its place, naming its line number
// and length, and the lines after it are still scanned, to exit status 0.
func TestOverCapLineIsDeadLettered(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "piiscan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building piiscan: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-stream")
	cmd.Stdin = strings.NewReader("call me at (212) 555-0142\n" +
		strings.Repeat("x", 1<<20+10) + "\nmail jane.roe@example.com\n")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("piiscan -stream: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "pii=[phone]") || !strings.HasPrefix(lines[2], "pii=[email]") ||
		lines[1] != "QUARANTINED (read): line 2 is 1048586 bytes, over the 1048576-byte line limit" {
		t.Errorf("stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "processed=3 succeeded=2 degraded=0 quarantined=1\n") {
		t.Errorf("stderr:\n%s", stderr.String())
	}
}
