package taxonomy_test

import (
	"fmt"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/taxonomy"
)

// TestGateCorpusDifferential runs the gated Categorize against the
// ungated oracle over generated corpora of all five platform types, and
// holds the gate to its budget: on documents that end up unlabelled —
// nine in ten — it may let through at most one cue regexp per two
// documents. A new cue whose only required literal is a common word
// fails here instead of silently undoing the gate.
func TestGateCorpusDifferential(t *testing.T) {
	c := taxonomy.Shared()
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			g := corpus.NewGenerator(corpus.Config{Seed: seed, VolumeScale: 100_000, PositiveScale: 40})
			corpora := g.Generate()
			corpora[corpus.Blogs] = g.GenerateBlogs(corpus.DefaultBlogSpecs(40))
			var docs, unlabelled, verified int
			for _, ds := range corpus.Datasets() {
				cp := corpora[ds]
				if cp == nil || cp.Len() == 0 {
					t.Fatalf("no %s documents generated", ds)
				}
				for i := range cp.Docs {
					text := cp.Docs[i].Text
					got, want := c.Categorize(text), taxonomy.OracleCategorize(c, text)
					if got != want {
						t.Fatalf("%s doc %s: gated %v, oracle %v\n%q", ds, cp.Docs[i].ID, got.Subs(), want.Subs(), text)
					}
					docs++
					if got.Empty() {
						unlabelled++
						verified += taxonomy.GatedRules(c, text)
					}
				}
			}
			mean := float64(verified) / float64(unlabelled)
			t.Logf("%d documents, %d unlabelled, %.3f regexps verified per unlabelled document", docs, unlabelled, mean)
			if mean > 0.5 {
				t.Errorf("gate lets %.3f regexps through per unlabelled document, budget 0.5", mean)
			}
		})
	}
}
