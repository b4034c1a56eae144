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
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	tool := New("tool", fs)
	var out, errOut bytes.Buffer
	tool.stdin, tool.stdout, tool.stderr = strings.NewReader(stdin), &out, &errOut
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
					return resilience.Permanent(errors.New("poisoned document"))
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
// -scan-workers and a -token lookup all hand the pipeline the same
// texts in the same order.
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

	for _, args := range [][]string{nil, {"-store", dir}, {"-store", dir, "-scan-workers", "1"}, {"-store", dir, "-scan-workers", "3", "-workers", "4"}} {
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
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-token", "mass"}, "tool: -token requires -store\n"},
		{[]string{"-scan-workers", "2"}, "tool: -scan-workers requires -store\n"},
	} {
		stdout, stderr, code := runTool(t, "hello\n", c.args...)
		if code != 1 || stderr != c.msg || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and %q", c.args, code, stdout, stderr, c.msg)
		}
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
	wantOut := "first\nQUARANTINED (validate after 1 attempts): permanent: poisoned document\nthird\n"
	if stdout != wantOut {
		t.Errorf("stdout %q, want %q", stdout, wantOut)
	}
	wantErr := "processed=3 succeeded=2 degraded=0 quarantined=1\n" +
		"  dead-letter poison pill: stage \"validate\" failed after 1 attempt(s): permanent: poisoned document\n"
	if stderr != wantErr {
		t.Errorf("stderr %q, want %q", stderr, wantErr)
	}
}

func TestInputErrorExitsOne(t *testing.T) {
	stdout, stderr, code := runTool(t, "short\n"+strings.Repeat("x", 1<<20+1)+"\n")
	if code != 1 || stdout != "short\n" || !strings.HasSuffix(stderr, "tool: reading input: bufio.Scanner: token too long\n") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
