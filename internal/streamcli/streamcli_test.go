package streamcli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/resilience"
)

// exitCode is what the tests' exit hook panics with.
type exitCode int

// runTool runs a command built on the skeleton with args and stdin: a
// "validate" stage that dead-letters any document containing "poison",
// and a printer that echoes each document. It returns what the command
// wrote and its exit code.
func runTool(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	return runToolFrom(t, strings.NewReader(stdin), args...)
}

// runToolFrom is runTool reading stdin from r.
func runToolFrom(t *testing.T, r io.Reader, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	tool := New("tool", fs)
	var out, errOut bytes.Buffer
	tool.stdin, tool.stdout, tool.stderr = r, &out, &errOut
	tool.exit = func(c int) { panic(exitCode(c)) }
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		c, ok := r.(exitCode)
		if !ok {
			panic(r)
		}
		stdout, stderr, code = out.String(), errOut.String(), int(c)
	}()
	tool.Start()
	tool.Finish(Run(tool, Pipeline[string]{
		New:  func(text string) string { return text },
		Text: func(s *string) string { return *s },
		Stages: []resilience.Stage[string]{{
			Name: "validate",
			Fn: func(_ context.Context, _ int, s *string) error {
				if strings.Contains(*s, "poison") {
					return errors.New("poisoned document")
				}
				return nil
			},
		}},
		Print: func(w io.Writer, res resilience.Result[string]) { fmt.Fprintln(w, res.Item) },
	}))
	t.Fatal("Finish returned")
	return
}

// buildStore writes texts into a two-segment store and returns its
// directory.
func buildStore(t *testing.T, texts []string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]corpus.Document, len(texts))
	for i, text := range texts {
		docs[i] = corpus.Document{
			ID: fmt.Sprintf("d-%02d", i), Dataset: corpus.Boards, Platform: corpus.PlatformBoards,
			Domain: "board-01.example", ThreadID: "t-1", PosInThread: i, ThreadSize: len(texts), Text: text,
		}
	}
	half := len(docs) / 2
	for _, batch := range [][]corpus.Document{docs[:half], docs[half:]} {
		if _, err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSourcesDeliverStoreOrder: stdin lines, a full store scan at any
// -workers and a -token lookup all hand the pipeline the same texts in
// the same order.
func TestSourcesDeliverStoreOrder(t *testing.T) {
	texts := []string{
		"we should mass report his channel",
		"anyone up for ranked tonight",
		"   ",
		"raid the stream at nine",
		"post her address everywhere",
		"mass flag every video he uploads",
		"patch notes are out",
	}
	dir := buildStore(t, texts)
	var want []string
	for _, text := range texts {
		if strings.TrimSpace(text) != "" {
			want = append(want, text)
		}
	}
	wantOut := strings.Join(want, "\n") + "\n"

	for _, args := range [][]string{nil, {"-store", dir}, {"-store", dir, "-workers", "4"}} {
		stdout, stderr, code := runTool(t, strings.Join(texts, "\n")+"\n", args...)
		if code != 0 || stdout != wantOut {
			t.Errorf("%v: exit %d, stdout\n%s\nwant\n%s\nstderr: %s", args, code, stdout, wantOut, stderr)
		}
	}
	stdout, _, code := runTool(t, "", "-store", dir, "-token", "mass")
	if want := texts[0] + "\n" + texts[5] + "\n"; code != 0 || stdout != want {
		t.Errorf("-token mass: exit %d, stdout %q, want %q", code, stdout, want)
	}
}

func TestStoreFlagsRequireStore(t *testing.T) {
	const msg = "tool: -token requires -store\n"
	stdout, stderr, code := runTool(t, "hello\n", "-token", "mass")
	if code != 1 || stderr != msg || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and %q", code, stdout, stderr, msg)
	}
}

// TestSummaryAndDeadLetters: a dead-lettered document prints a
// QUARANTINED line in its place on stdout, and stderr ends with the
// summary and one dead-letter line per quarantined document.
func TestSummaryAndDeadLetters(t *testing.T) {
	stdout, stderr, code := runTool(t, "first\npoison pill\nthird\n")
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr)
	}
	wantOut := "first\nQUARANTINED (validate): poisoned document\nthird\n"
	if stdout != wantOut {
		t.Errorf("stdout %q, want %q", stdout, wantOut)
	}
	wantErr := "processed=3 succeeded=2 degraded=0 quarantined=1\n" +
		"  dead-letter poison pill: stage \"validate\" failed: poisoned document\n"
	if stderr != wantErr {
		t.Errorf("stderr %q, want %q", stderr, wantErr)
	}
}

// TestInputErrorExitsOne: a stdin read error ends the run after the
// documents read before it, with a diagnostic naming the line and exit
// status 1.
func TestInputErrorExitsOne(t *testing.T) {
	r := io.MultiReader(strings.NewReader("short\nhalf a li"), iotest.ErrReader(errors.New("device gone")))
	stdout, stderr, code := runToolFrom(t, r)
	if code != 1 || stdout != "short\n" || !strings.HasSuffix(stderr, "tool: reading input: line 2: device gone\n") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestOverCapLineIsDeadLettered: a stdin line over the 1 MiB cap is one
// dead letter in its place, naming its line number and length, and the
// stream goes on to exit 0. Blank lines count toward the line number,
// not toward the documents.
func TestOverCapLineIsDeadLettered(t *testing.T) {
	long := strings.Repeat("x", maxLineBytes+10)
	for _, end := range []string{"\nthird\n", ""} {
		stdout, stderr, code := runTool(t, "first\n\n"+long+end)
		wantOut := "first\nQUARANTINED (read): line 3 is 1048586 bytes, over the 1048576-byte line limit\n"
		wantErr := "processed=2 succeeded=1 degraded=0 quarantined=1\n" +
			"  dead-letter " + long[:40] + "...: stage \"read\" failed: line 3 is 1048586 bytes, over the 1048576-byte line limit\n"
		if end != "" {
			wantOut += "third\n"
			wantErr = strings.Replace(wantErr, "processed=2 succeeded=1", "processed=3 succeeded=2", 1)
		}
		if code != 0 || stdout != wantOut || stderr != wantErr {
			t.Errorf("ending %q: exit %d\nstdout %q\nwant   %q\nstderr %q\nwant   %q", end, code, stdout, wantOut, stderr, wantErr)
		}
	}
}
