// Command cthdetect scores text for calls to harassment and doxes. Each
// line on stdin is treated as one document; the tool prints the trained
// classifiers' scores, the rule-based taxonomy coding, and whether the
// Figure 4 seed query matches.
//
// Lines are processed on the fault-tolerant streaming runtime: a
// document that panics or fails a stage is quarantined to a dead-letter
// record and reported in the final processed/succeeded/quarantined
// summary instead of killing the run, and so is a line longer than
// 1 MiB, which is never held in memory.
//
// The classifiers are loaded with -models or trained at startup by
// running the quick-scale pipeline over generated corpora (about a
// second); the taxonomy and seed-query columns need no training. A
// score depends only on the document's text, so the output is the same
// at any -workers.
//
// With -metrics, a JSON metrics snapshot (per-stage attempt/failure
// counters, latency histograms, scratch-pool and PII-prefilter
// instruments) is printed to stderr after the summary; -metrics-addr
// additionally serves the live registry at /metrics (Prometheus text
// format) and the net/http/pprof profiling endpoints for the duration
// of the run. -max-doc-bytes rejects oversized lines into the
// dead-letter summary instead of scoring them.
//
// With -store, documents are streamed from a segmented corpus store
// (built by corpusgen -store) instead of stdin, one document at a time
// in store order through the store's mmap readers, so memory stays
// bounded. -token restricts the stream to the store's
// inverted-index matches with boolean syntax: comma-separated clauses
// AND, |-separated alternatives within a clause OR, and a -term clause
// excludes matches — e.g. -token "dataset:boards,raid" or
// -token "dox|doxx,-paste".
//
// Usage:
//
//	echo "we should mass report his channel" | cthdetect [-seed N] [-rules-only] [-workers N] [-metrics] [-metrics-addr :9090] [-max-doc-bytes N]
//	cthdetect -store DIR [-token "dox|doxx,-paste"] [-rules-only] ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"harassrepro"
	"harassrepro/internal/core"
	"harassrepro/internal/pii"
	"harassrepro/internal/resilience"
	"harassrepro/internal/streamcli"
)

// row is one document flowing through the streaming runtime.
type row struct {
	Text      string
	HasScores bool
	CTH, Dox  float64
	SeedQuery bool
	Attacks   []string
	PII       []string
}

func main() {
	tool := streamcli.New("cthdetect", flag.CommandLine)
	defer tool.Recover()
	var (
		seed        = flag.Uint64("seed", 1, "training seed")
		rulesOnly   = flag.Bool("rules-only", false, "skip classifier training; taxonomy and query only")
		models      = flag.String("models", "", "load pretrained classifiers from this directory (see harassrepro -save-models) instead of training")
		explain     = flag.Int("explain", 0, "print the top-N n-grams driving each CTH score")
		maxDocBytes = flag.Int("max-doc-bytes", 0, "dead-letter lines longer than this many bytes (0 = no limit)")
	)
	flag.Parse()
	reg := tool.Start()

	var det *core.Detector
	switch {
	case *rulesOnly:
	case *models != "":
		d, err := core.LoadDetector(*models)
		if err != nil {
			tool.Fail("%v", err)
		}
		det = d
		fmt.Fprintf(os.Stderr, "loaded classifiers from %s\n", *models)
	default:
		fmt.Fprintln(os.Stderr, "training filtering classifiers (quick scale)...")
		p, err := core.Run(core.QuickConfig(*seed))
		if err != nil {
			tool.Fail("%v", err)
		}
		det = p.Detector()
		fmt.Fprintln(os.Stderr, "ready")
	}

	// Stage pipeline: classifier scoring is required (quarantine on
	// failure); the rule-based annotations degrade instead.
	ext := pii.NewExtractor()
	if reg != nil {
		ext.SetMetrics(reg)
	}
	var stages []resilience.Stage[row]
	if *maxDocBytes > 0 {
		limit := *maxDocBytes
		stages = append(stages, resilience.Stage[row]{
			Name: "validate",
			Fn: func(_ context.Context, _ int, r *row) error {
				if len(r.Text) > limit {
					return fmt.Errorf("document is %d bytes, limit %d", len(r.Text), limit)
				}
				return nil
			},
		})
	}
	if det != nil {
		stages = append(stages, resilience.Stage[row]{
			Name: "score",
			Fn: func(_ context.Context, _ int, r *row) error {
				if strings.TrimSpace(r.Text) == "" {
					return errors.New("blank document")
				}
				r.CTH, r.Dox = det.Scores(r.Text)
				r.HasScores = true
				return nil
			},
		})
	}
	stages = append(stages, resilience.Stage[row]{
		Name:       "annotate",
		Degradable: true,
		Fn: func(_ context.Context, _ int, r *row) error {
			r.SeedQuery = harassrepro.MatchesSeedQuery(r.Text)
			r.Attacks = harassrepro.AttackParents(r.Text)
			var types []string
			for _, t := range ext.Types(r.Text) {
				types = append(types, string(t))
			}
			r.PII = types
			return nil
		},
	})

	tool.Finish(streamcli.Run(tool, streamcli.Pipeline[row]{
		New:    func(text string) row { return row{Text: text} },
		Text:   func(r *row) string { return r.Text },
		Stages: stages,
		Print: func(w io.Writer, res resilience.Result[row]) {
			r := res.Item
			if r.HasScores {
				fmt.Fprintf(w, "cth=%.3f dox=%.3f ", r.CTH, r.Dox)
			}
			fmt.Fprintf(w, "seed-query=%v", r.SeedQuery)
			if len(r.Attacks) > 0 {
				fmt.Fprintf(w, " attacks=%v", r.Attacks)
			}
			if len(r.PII) > 0 {
				fmt.Fprintf(w, " pii=%v", r.PII)
			}
			if len(res.Degraded) > 0 {
				fmt.Fprintf(w, " degraded=%v", res.Degraded)
			}
			fmt.Fprintln(w)
			if det != nil && *explain > 0 {
				for _, nw := range det.ExplainCTH(r.Text, *explain) {
					fmt.Fprintf(w, "    %+.3f  %s\n", nw.Weight, nw.NGram)
				}
			}
		},
	}))
}
