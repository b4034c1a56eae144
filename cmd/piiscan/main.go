// Command piiscan extracts PII from text on stdin with the paper's 12
// precision-tuned extractors (§5.6) and reports the target's harm-risk
// profile (Table 7) and likely gender (pronoun heuristic).
//
// By default the whole of stdin is one document. With -stream, each
// line is one document, processed on the fault-tolerant streaming
// runtime: a document that panics or repeatedly fails a stage is
// quarantined and counted in the final
// processed/succeeded/quarantined summary instead of aborting the run.
//
// With -metrics, a JSON metrics snapshot (PII prefilter pass/reject
// counts, per-family regex activations, and — in stream mode — the
// runner's per-stage counters) is printed to stderr after the run;
// -metrics-addr serves the live registry at /metrics plus the
// net/http/pprof endpoints while the scan runs.
//
// With -store, documents are streamed from a segmented corpus store
// (built by corpusgen -store) instead of stdin, one document at a time
// in store order through the store's mmap readers. -token restricts
// the stream to the store's inverted-index matches with
// boolean syntax: comma-separated clauses AND, |-separated
// alternatives OR, and a -term clause excludes — so
// -token "paste,email|phone" scans paste documents with an email or a
// phone number. -store implies -stream.
//
// Usage:
//
//	piiscan [-json] [-metrics] < document.txt
//	piiscan -stream [-json] [-workers N] [-metrics] [-metrics-addr :9090] < documents.txt
//	piiscan -store DIR [-token "paste,email|phone"] [-json] [-workers N]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"harassrepro"
	"harassrepro/internal/gender"
	"harassrepro/internal/harm"
	"harassrepro/internal/pii"
	"harassrepro/internal/resilience"
	"harassrepro/internal/streamcli"
)

func main() {
	tool := streamcli.New("piiscan", flag.CommandLine)
	defer tool.Recover()
	var (
		jsonOut = flag.Bool("json", false, "emit JSON instead of text")
		stream  = flag.Bool("stream", false, "treat each stdin line as one document (fault-tolerant streaming)")
	)
	flag.Parse()
	if reg := tool.Start(); reg != nil {
		extractor.SetMetrics(reg)
	}

	if *stream || tool.FromStore() {
		tool.Finish(streamcli.Run(tool, streamcli.Pipeline[scan]{
			New:  func(text string) scan { return scan{Text: text} },
			Text: func(s *scan) string { return s.Text },
			Stages: []resilience.Stage[scan]{{
				Name:      "extract",
				Transient: true,
				Fn: func(_ context.Context, _ int, s *scan) error {
					analyze(s)
					return nil
				},
			}},
			Print: func(w io.Writer, res resilience.Result[scan]) {
				if *jsonOut {
					if err := json.NewEncoder(w).Encode(res.Item); err != nil {
						tool.Fail("%v", err)
					}
					return
				}
				s := res.Item
				var types []string
				for _, m := range s.PII {
					types = append(types, m.Type)
				}
				fmt.Fprintf(w, "pii=%v risks=%v gender=%s\n", types, s.Risks, s.Gender)
			},
		}))
		return
	}

	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		tool.Fail("reading stdin: %v", err)
	}
	s := scan{Text: string(data)}
	analyze(&s)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			tool.Fail("%v", err)
		}
	} else {
		printScan(&s)
	}
	tool.Finish(nil)
}

// scan is one document's extracted profile.
type scan struct {
	Text   string                 `json:"-"`
	PII    []harassrepro.PIIMatch `json:"pii"`
	Risks  []string               `json:"harm_risks"`
	Gender string                 `json:"likely_target_gender"`
}

// extractor is the process-wide PII extractor; -metrics attaches a
// registry to it before any document is scanned.
var extractor = pii.NewExtractor()

func analyze(s *scan) {
	matches := extractor.Extract(s.Text)
	seen := map[pii.Type]bool{}
	for _, m := range matches {
		s.PII = append(s.PII, harassrepro.PIIMatch{Type: string(m.Type), Value: m.Value})
		seen[m.Type] = true
	}
	// Table 6 order, one scan: derive the type set from the matches
	// instead of a second Extract pass.
	var types []pii.Type
	for _, t := range pii.AllTypes() {
		if seen[t] {
			types = append(types, t)
		}
	}
	for _, r := range harm.Profile(types, s.Text) {
		s.Risks = append(s.Risks, string(r))
	}
	s.Gender = string(gender.Infer(s.Text))
}

func printScan(s *scan) {
	if len(s.PII) == 0 {
		fmt.Println("no PII detected")
	} else {
		fmt.Printf("PII (%d):\n", len(s.PII))
		for _, m := range s.PII {
			fmt.Printf("  %-10s %s\n", m.Type, m.Value)
		}
	}
	if len(s.Risks) > 0 {
		fmt.Printf("harm risks: %v\n", s.Risks)
	}
	fmt.Printf("likely target gender: %s\n", s.Gender)
}
