// Package streamcli is the skeleton the line-per-document commands
// (cthdetect, piiscan) share: the -workers, -metrics, -metrics-addr,
// -store and -token flags; documents read from stdin lines (a line
// over 1 MiB is dead-lettered in its place, never held in memory) or
// streamed out of a segmented corpus store; the
// fault-tolerant runner; and the drain that prints QUARANTINED lines,
// the processed/succeeded/degraded/quarantined summary, dead letters
// and the metrics snapshot. A command keeps only its own flags, stages
// and per-result printer.
package streamcli

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/obs"
	"harassrepro/internal/obs/obshttp"
	"harassrepro/internal/resilience"
)

// Tool is one command's shared flags and process state.
type Tool struct {
	name        string
	workers     int
	metrics     bool
	metricsAddr string
	storeDir    string
	token       string

	reg *obs.Registry
	srv *obshttp.Server

	stdin          io.Reader
	stdout, stderr io.Writer
	exit           func(code int)
}

// New registers the shared flags on fs for the command name, which
// prefixes every diagnostic.
func New(name string, fs *flag.FlagSet) *Tool {
	t := &Tool{name: name, stdin: os.Stdin, stdout: os.Stdout, stderr: os.Stderr, exit: os.Exit}
	fs.IntVar(&t.workers, "workers", 0, "streaming worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&t.metrics, "metrics", false, "print a JSON metrics snapshot to stderr after the run")
	fs.StringVar(&t.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	fs.StringVar(&t.storeDir, "store", "", "stream documents from the segmented corpus store at this directory instead of stdin")
	fs.StringVar(&t.token, "token", "", "with -store: stream only inverted-index matches; clauses AND on commas, OR on |, -term excludes")
	return t
}

// Start checks the shared flags and, with -metrics or -metrics-addr,
// creates the metrics registry (serving it with -metrics-addr). It
// returns the registry, or nil when metrics are off.
func (t *Tool) Start() *obs.Registry {
	if t.token != "" && t.storeDir == "" {
		t.Fail("-token requires -store")
	}
	if t.metrics || t.metricsAddr != "" {
		t.reg = obs.NewRegistry()
	}
	if t.metricsAddr != "" {
		srv, err := obshttp.Serve(t.metricsAddr, t.reg)
		if err != nil {
			t.Fail("metrics server: %v", err)
		}
		t.srv = srv
		fmt.Fprintf(t.stderr, "serving metrics on http://%s/metrics\n", srv.Addr())
	}
	return t.reg
}

// FromStore reports whether documents come from -store.
func (t *Tool) FromStore() bool { return t.storeDir != "" }

// Fail prints a one-line diagnostic and exits 1.
func (t *Tool) Fail(format string, args ...any) {
	fmt.Fprintf(t.stderr, t.name+": "+format+"\n", args...)
	t.exitWith(1)
}

// Recover turns a stray panic into a one-line diagnostic instead of a
// stack trace; main defers it first.
func (t *Tool) Recover() {
	if r := recover(); r != nil {
		t.Fail("internal error: %v", r)
	}
}

// Finish prints the metrics snapshot after the run (with -metrics),
// then exits: 1 with a diagnostic when reading the input failed, 0
// otherwise. It does not return.
func (t *Tool) Finish(inputErr error) {
	if t.metrics {
		fmt.Fprintln(t.stderr, "metrics snapshot:")
		if err := t.reg.WriteJSON(t.stderr); err != nil {
			t.Fail("writing metrics: %v", err)
		}
	}
	if inputErr != nil {
		t.Fail("reading input: %v", inputErr)
	}
	t.exitWith(0)
}

// exitWith drains the metrics server on every exit path, so an
// in-flight scrape is never hard-reset, then exits with code.
func (t *Tool) exitWith(code int) {
	if t.srv != nil {
		t.srv.CloseTimeout(2 * time.Second) //nolint:errcheck // best-effort drain on exit
	}
	t.exit(code)
}

// Pipeline is what a command runs over each document.
type Pipeline[T any] struct {
	// New makes the item for one document text.
	New func(text string) T
	// Text returns an item's document text; its first 40 bytes name
	// the item in dead letters.
	Text func(*T) string
	// Stages run in order on every item.
	Stages []resilience.Stage[T]
	// Print writes one result that was not quarantined, in input order.
	Print func(w io.Writer, res resilience.Result[T])
}

// maxLineBytes caps one stdin document: a longer line is discarded as
// it is read and fails the "read" stage in its place.
const maxLineBytes = 1 << 20

// Run feeds every non-blank document, in input order, through p's
// stages on the resilience runner and prints each result, then the
// summary and the dead letters. It returns the error that stopped the
// input, if any.
func Run[T any](t *Tool, p Pipeline[T]) error {
	stages := p.Stages
	// overCap maps the runner index of each stdin line over
	// maxLineBytes to its error; the "read" stage quarantines it.
	var overCap sync.Map
	if !t.FromStore() {
		read := resilience.Stage[T]{Name: "read", Fn: func(_ context.Context, index int, _ *T) error {
			if err, ok := overCap.LoadAndDelete(index); ok {
				return err.(error)
			}
			return nil
		}}
		stages = append([]resilience.Stage[T]{read}, stages...)
	}
	runner := resilience.NewRunner(resilience.Config[T]{
		Workers: t.workers,
		Describe: func(it *T) string {
			s := p.Text(it)
			if len(s) > 40 {
				return s[:40] + "..."
			}
			return s
		},
		Metrics: t.reg,
	}, stages...)

	in := make(chan T)
	inputErr := make(chan error, 1)
	go func() {
		defer close(in)
		index := 0
		inputErr <- t.feed(func(text string, err error) {
			if err != nil {
				overCap.Store(index, err)
			}
			in <- p.New(text)
			index++
		})
	}()

	// Only the summary counts and dead letters outlive a result, so
	// memory stays bounded by the runner's window, not the input size.
	var sum resilience.Summary
	for res := range runner.Process(context.Background(), in) {
		sum.Add(res.Status, res.Dead)
		if res.Status == resilience.StatusQuarantined {
			fmt.Fprintf(t.stdout, "QUARANTINED (%s): %v\n", res.Dead.Stage, res.Dead.Err)
			continue
		}
		p.Print(t.stdout, res)
	}
	fmt.Fprintln(t.stderr, sum)
	for _, dl := range sum.DeadLetters {
		fmt.Fprintf(t.stderr, "  dead-letter %s\n", dl)
	}
	return <-inputErr
}

// feed passes emit every non-blank document text: one per stdin line,
// or the store's documents in store order. A stdin line over
// maxLineBytes is emitted as its first bytes with an error naming its
// line number and length.
func (t *Tool) feed(emit func(text string, err error)) error {
	if t.storeDir != "" {
		return t.feedStore(func(text string) { emit(text, nil) })
	}
	br := bufio.NewReader(t.stdin)
	var buf []byte
	for n := 1; ; n++ {
		line, consumed, tooLong, err := corpus.ReadLine(br, buf[:0], maxLineBytes)
		buf = line
		if err != nil && err != io.EOF {
			return fmt.Errorf("line %d: %w", n, err)
		}
		switch {
		case tooLong:
			length := consumed
			if err == nil {
				length-- // the newline
			}
			emit(string(line), fmt.Errorf("line %d is %d bytes, over the %d-byte line limit", n, length, maxLineBytes))
		case len(bytes.TrimSpace(line)) > 0:
			emit(string(line), nil)
		}
		if err == io.EOF {
			return nil
		}
	}
}

// feedStore streams the store's documents in store order: all of them
// (store.Scan), or only the -token query's matches (posting bitmaps
// combined per segment, see store.ParseQuery). Documents are decoded
// one at a time, so memory stays bounded whatever the store size; the
// runner, not the scan, supplies the parallelism.
func (t *Tool) feedStore(emit func(text string)) error {
	s, err := store.Open(t.storeDir)
	if err != nil {
		return err
	}
	defer s.Close()
	for _, torn := range s.Recovery().Torn {
		fmt.Fprintf(t.stderr, "%s: store recovered torn segment %s (%d docs salvaged)\n",
			t.name, torn.Name, torn.SalvagedDocs)
	}
	fn := func(d *corpus.Document, _ store.DocRef) error {
		if strings.TrimSpace(d.Text) != "" {
			emit(d.Text)
		}
		return nil
	}
	if strings.TrimSpace(t.token) != "" {
		q, err := store.ParseQuery(t.token)
		if err != nil {
			return err
		}
		return s.LookupQueryDocs(q, fn)
	}
	return s.Scan(fn)
}
