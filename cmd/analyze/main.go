// Command analyze runs the paper's rule-based characterizations over an
// external corpus supplied as JSON Lines on stdin (the format
// cmd/corpusgen emits: one {"text": ...} object per line; platform and
// thread fields optional). No classifier training is involved — the
// taxonomy coder, PII extractors, harm-risk mapping, gender heuristic
// and seed query run directly, optionally joined by pretrained
// classifiers via -models.
//
// Usage:
//
//	corpusgen | analyze
//	analyze -models trained/ < mycorpus.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"harassrepro"
	"harassrepro/internal/corpus"
	"harassrepro/internal/gender"
	"harassrepro/internal/report"
	"harassrepro/internal/taxonomy"
)

func main() {
	var (
		models    = flag.String("models", "", "optionally score with pretrained classifiers from this directory")
		threshold = flag.Float64("threshold", 0.5, "classifier flagging threshold when -models is set")
	)
	flag.Parse()

	docs, err := corpus.ReadJSONL(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		os.Exit(1)
	}
	if len(docs) == 0 {
		fmt.Fprintln(os.Stderr, "analyze: no documents on stdin")
		os.Exit(1)
	}

	var det *harassrepro.Detector
	if *models != "" {
		det, err = harassrepro.LoadDetector(*models)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
			os.Exit(1)
		}
	}

	cat := taxonomy.Shared()
	var (
		cthDocs, doxDocs, piiDocs int
		labels                    []taxonomy.Label
		genderCounts              = map[gender.Gender]int{}
		piiCounts                 = map[string]int{}
		riskCounts                = map[string]int{}
	)
	for i := range docs {
		text := docs[i].Text
		label := cat.Categorize(text)
		flagged := !label.Empty()
		if det != nil {
			flagged = flagged || det.ScoreCTH(text) > *threshold
		}
		if flagged {
			cthDocs++
			if label.Empty() {
				label = taxonomy.NewLabel(taxonomy.SubGeneric)
			}
			labels = append(labels, label)
			genderCounts[gender.Infer(text)]++
		}
		types := harassrepro.PIITypes(text)
		if len(types) > 0 {
			piiDocs++
			for _, ty := range types {
				piiCounts[ty]++
			}
			isDox := len(types) >= 2
			if det != nil {
				isDox = det.ScoreDox(text) > *threshold
			}
			if isDox {
				doxDocs++
				for _, r := range harassrepro.HarmRisks(text) {
					riskCounts[r]++
				}
			}
		}
	}

	fmt.Printf("documents: %d\n", len(docs))
	fmt.Printf("flagged as calls to harassment: %d (%.2f%%)\n", cthDocs, 100*float64(cthDocs)/float64(len(docs)))
	fmt.Printf("documents with PII: %d; likely doxes: %d\n\n", piiDocs, doxDocs)

	if len(labels) > 0 {
		dist := taxonomy.NewDistribution(labels)
		t := report.NewTable("Attack types among flagged documents", "Attack Type", "Share")
		for _, p := range taxonomy.Parents() {
			if dist.ParentHits[p] > 0 {
				t.AddRow(string(p), report.Pct(dist.ParentHits[p], dist.Total))
			}
		}
		fmt.Println(t.String())
		fmt.Printf("Inferred target gender: unknown %d / female %d / male %d\n\n",
			genderCounts[gender.Unknown], genderCounts[gender.Female], genderCounts[gender.Male])
	}
	if len(piiCounts) > 0 {
		t := report.NewTable("PII types found", "Type", "Documents")
		for _, ty := range []string{"address", "card", "email", "facebook", "instagram", "phone", "ssn", "twitter", "youtube"} {
			if piiCounts[ty] > 0 {
				t.AddRow(ty, fmt.Sprintf("%d", piiCounts[ty]))
			}
		}
		fmt.Println(t.String())
	}
	if len(riskCounts) > 0 {
		t := report.NewTable("Harm risks among likely doxes", "Risk", "Documents")
		for _, r := range []string{"Physical", "Economic / Identity", "Online", "Reputation"} {
			if riskCounts[r] > 0 {
				t.AddRow(r, fmt.Sprintf("%d", riskCounts[r]))
			}
		}
		fmt.Println(t.String())
	}
}
