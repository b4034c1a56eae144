package core

import (
	"strings"
	"testing"

	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
)

// TestTinyScalePipeline runs the full pipeline at an extreme volume
// scale: corpora shrink to a few hundred documents per platform, yet
// every stage must complete and every experiment must render.
func TestTinyScalePipeline(t *testing.T) {
	p, err := Run(Config{
		Seed:          99,
		VolumeScale:   400_000,
		PositiveScale: 100,
		BlogScale:     50,
		Buckets:       1 << 14,
		Epochs:        2,
		ActivePerBin:  5,
		AnnotationCap: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		if _, err := e.Run(p); err != nil {
			t.Errorf("experiment %s at tiny scale: %v", e.ID, err)
		}
	}
	// Positives exist despite the extreme scale (floors apply).
	if p.Dox.TotalTruePositives() == 0 || p.CTH.TotalTruePositives() == 0 {
		t.Errorf("tiny scale lost all positives: dox %d, cth %d",
			p.Dox.TotalTruePositives(), p.CTH.TotalTruePositives())
	}
}

// TestMismatchedScales stresses the corpus budget floor: many positives,
// very small volume.
func TestMismatchedScales(t *testing.T) {
	g := corpus.NewGenerator(corpus.Config{Seed: 7, VolumeScale: 1_000_000, PositiveScale: 5})
	boards := g.Generate()[corpus.Boards]
	cth := len(boards.Filter(func(d *corpus.Document) bool { return d.Truth.IsCTH }))
	dox := len(boards.Filter(func(d *corpus.Document) bool { return d.Truth.IsDox }))
	// Quotas must be met (the generator grows the budget).
	if cth < 3500 || dox < 1800 {
		t.Errorf("quotas unmet at mismatched scales: cth=%d dox=%d", cth, dox)
	}
	// Thread structure must remain intact.
	threads := map[string]int{}
	for i := range boards.Docs {
		threads[boards.Docs[i].ThreadID]++
	}
	for id, n := range threads {
		first := -1
		for i := range boards.Docs {
			if boards.Docs[i].ThreadID == id {
				first = i
				break
			}
		}
		if boards.Docs[first].ThreadSize != n {
			t.Fatalf("thread %s: size field %d != actual %d", id, boards.Docs[first].ThreadSize, n)
		}
	}
}

// TestPipelineDeterminism verifies that two identical Run calls produce
// identical headline numbers.
func TestPipelineDeterminism(t *testing.T) {
	cfg := Config{Seed: 123, VolumeScale: 200_000, PositiveScale: 50, Buckets: 1 << 14, Epochs: 2, ActivePerBin: 5, AnnotationCap: 50}
	p1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Dox.TotalTruePositives() != p2.Dox.TotalTruePositives() {
		t.Errorf("dox TP differ: %d vs %d", p1.Dox.TotalTruePositives(), p2.Dox.TotalTruePositives())
	}
	if p1.CTH.TotalTruePositives() != p2.CTH.TotalTruePositives() {
		t.Errorf("cth TP differ: %d vs %d", p1.CTH.TotalTruePositives(), p2.CTH.TotalTruePositives())
	}
	if p1.Dox.Eval.Positive.F1 != p2.Dox.Eval.Positive.F1 {
		t.Errorf("dox F1 differ: %v vs %v", p1.Dox.Eval.Positive.F1, p2.Dox.Eval.Positive.F1)
	}
	for _, plat := range taskPlatforms(annotate.TaskCTH) {
		if p1.CTH.Results[plat].Threshold != p2.CTH.Results[plat].Threshold {
			t.Errorf("%s thresholds differ", plat)
		}
	}
}

// TestSweepMetricsAndRender exercises the cross-seed sweep machinery on
// the shared pipeline plus one fresh seed.
func TestSweepMetricsAndRender(t *testing.T) {
	p := sharedPipeline(t)
	m := p.CollectMetrics()
	if m.DoxF1 <= 0 || m.CTHF1 <= 0 {
		t.Errorf("metrics missing F1: %+v", m)
	}
	if m.ReportingShare < 0.3 || m.ReportingShare > 0.8 {
		t.Errorf("reporting share = %v", m.ReportingShare)
	}
	out := RenderSweep([]SweepMetrics{m, m})
	for _, want := range []string{"mean", "sd", "paper", "Reporting %"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep render missing %q:\n%s", want, out)
		}
	}
}
