package annotate

import (
	"fmt"
	"strings"
	"testing"

	"harassrepro/internal/randx"
)

// makeItems builds an item pool with the given positive prevalence.
func makeItems(n int, prevalence float64, seed uint64) []Item {
	rng := randx.New(seed)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("doc-%05d", i), Truth: rng.Bool(prevalence)}
	}
	return items
}

func TestPoolCreation(t *testing.T) {
	rng := randx.New(1)
	p := NewPool(CrowdConfig(TaskDox), rng)
	if got := len(p.Active()); got != 8 {
		t.Fatalf("active annotators = %d, want 8", got)
	}
	for _, a := range p.Active() {
		if a.TPR < 0.7 || a.TNR < 0.9 {
			t.Errorf("annotator %s accuracies out of band: %v/%v", a.ID, a.TPR, a.TNR)
		}
	}
}

func TestEntryTestRejectsBadAnnotators(t *testing.T) {
	rng := randx.New(2)
	// A pool of coin-flippers: nearly all should fail the 90% entry bar.
	p := NewPool(PoolConfig{Size: 5, TPR: 0.5, TNR: 0.5}, rng)
	// Candidates are numbered in order, so a full pool whose last member
	// is candidate 5 turned nobody away.
	if active := p.Active(); len(active) == 5 && active[4].ID == "annotator-005" {
		t.Error("no candidates rejected at entry despite coin-flip accuracy")
	}
}

func TestAnnotateLabelsAccurate(t *testing.T) {
	rng := randx.New(3)
	p := NewPool(ExpertConfig(TaskDox), rng)
	items := makeItems(1000, 0.5, 4)
	decisions, _, err := p.Annotate(items)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, item := range items {
		if decisions[i].Label == item.Truth {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(items)); acc < 0.95 {
		t.Errorf("expert accuracy = %v, want > 0.95", acc)
	}
}

func TestCrowdKappaBands(t *testing.T) {
	// Crowd pools must land near the paper's agreement levels when
	// annotating pools at the calibration prevalences.
	cases := []struct {
		task       Task
		prevalence float64
		kappaLo    float64
		kappaHi    float64
		disagreeHi float64
	}{
		// Doxing: kappa 0.519 ("moderate"), disagreement 3.94%. The
		// calibration prevalence (~9%) matches the pipeline's dox pool.
		{TaskDox, 0.09, 0.40, 0.65, 0.09},
		// CTH: kappa 0.350 ("fair"), disagreement 18.66%; pool
		// prevalence ~4.5%.
		{TaskCTH, 0.045, 0.24, 0.47, 0.14},
	}
	for _, c := range cases {
		rng := randx.New(5)
		p := NewPool(CrowdConfig(c.task), rng)
		items := makeItems(8000, c.prevalence, 6)
		_, st, err := p.Annotate(items)
		if err != nil {
			t.Fatal(err)
		}
		if st.Kappa < c.kappaLo || st.Kappa > c.kappaHi {
			t.Errorf("%s: kappa = %.3f, want in [%.2f, %.2f]", c.task, st.Kappa, c.kappaLo, c.kappaHi)
		}
		if st.DisagreementRate > c.disagreeHi {
			t.Errorf("%s: disagreement = %.3f, want < %.2f", c.task, st.DisagreementRate, c.disagreeHi)
		}
	}
}

func TestCTHHarderThanDox(t *testing.T) {
	// The semantic-nuance gap: crowd agreement must be lower on the CTH
	// task than on doxing (the paper's core annotation observation).
	rngD := randx.New(7)
	pd := NewPool(CrowdConfig(TaskDox), rngD)
	itemsD := makeItems(6000, 0.09, 8)
	_, stD, _ := pd.Annotate(itemsD)

	rngC := randx.New(7)
	pc := NewPool(CrowdConfig(TaskCTH), rngC)
	itemsC := makeItems(6000, 0.045, 8)
	_, stC, _ := pc.Annotate(itemsC)

	if stC.Kappa >= stD.Kappa {
		t.Errorf("CTH kappa %.3f >= dox kappa %.3f", stC.Kappa, stD.Kappa)
	}
	if stC.DisagreementRate <= stD.DisagreementRate {
		t.Errorf("CTH disagreement %.3f <= dox %.3f", stC.DisagreementRate, stD.DisagreementRate)
	}
}

func TestExpertKappaStrong(t *testing.T) {
	// Expert agreement over thresholded (high-precision) pools:
	// kappa 0.893 dox / 0.845 CTH, both "strong".
	for _, task := range []Task{TaskDox, TaskCTH} {
		rng := randx.New(9)
		p := NewPool(ExpertConfig(task), rng)
		items := makeItems(4000, 0.7, 10)
		_, st, err := p.Annotate(items)
		if err != nil {
			t.Fatal(err)
		}
		if st.Kappa < 0.78 {
			t.Errorf("%s expert kappa = %.3f, want > 0.78", task, st.Kappa)
		}
		if st.KappaBand != "strong" {
			t.Errorf("%s expert kappa band = %q", task, st.KappaBand)
		}
	}
}

func TestTieBreaking(t *testing.T) {
	rng := randx.New(11)
	p := NewPool(CrowdConfig(TaskCTH), rng)
	items := makeItems(3000, 0.3, 12)
	decisions, st, err := p.Annotate(items)
	if err != nil {
		t.Fatal(err)
	}
	if st.Disagreements == 0 {
		t.Fatal("no disagreements in a noisy pool")
	}
	for _, d := range decisions {
		if d.Disagreed && d.First == d.Second {
			t.Fatal("decision marked disagreed with matching labels")
		}
		if !d.Disagreed && d.Label != d.First {
			t.Fatal("agreed decision must carry the agreed label")
		}
	}
}

func TestGatingRemovesBadAnnotators(t *testing.T) {
	rng := randx.New(13)
	// A large pool with terrible re-test behaviour: force low accuracy
	// but pass entry by configuring a pool whose jitter creates a bad
	// tail. Simplest: low TPR/TNR but wide pool and lenient entry.
	cfg := PoolConfig{Size: 10, TPR: 0.75, TNR: 0.75, EntryPassScore: 0.5, RemoveBelowScore: 0.85}
	p := NewPool(cfg, rng)
	items := makeItems(5000, 0.5, 14)
	_, st, err := p.Annotate(items)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedAnnotators == 0 {
		t.Error("gating removed no annotators from a low-accuracy pool")
	}
	if len(p.Active()) < 3 {
		t.Error("gating left fewer than 3 active annotators")
	}
}

func TestAnnotateRequiresThreeAnnotators(t *testing.T) {
	rng := randx.New(15)
	p := NewPool(PoolConfig{Size: 2, TPR: 0.99, TNR: 0.99}, rng)
	if _, _, err := p.Annotate(makeItems(10, 0.5, 16)); err == nil {
		t.Fatal("expected error for pool smaller than 3")
	}
}

func TestAnnotateDeterministic(t *testing.T) {
	run := func() []Decision {
		rng := randx.New(17)
		p := NewPool(CrowdConfig(TaskDox), rng)
		d, _, _ := p.Annotate(makeItems(500, 0.2, 18))
		return d
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
	}
}

func TestTaskTemplate(t *testing.T) {
	for _, task := range []Task{TaskDox, TaskCTH} {
		tpl := TaskTemplate(task)
		for _, want := range []string{"Do not open URLs", "[ ] Yes", string(task)} {
			if !strings.Contains(tpl, want) {
				t.Errorf("%s template missing %q", task, want)
			}
		}
	}
	if TaskTemplate(TaskDox) == TaskTemplate(TaskCTH) {
		t.Error("task templates should differ")
	}
}

func BenchmarkAnnotate(b *testing.B) {
	rng := randx.New(1)
	p := NewPool(CrowdConfig(TaskDox), rng)
	items := makeItems(1000, 0.1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Annotate(items)
	}
}

func TestSpotCheck(t *testing.T) {
	rng := randx.New(61)
	crowd := NewPool(CrowdConfig(TaskCTH), rng)
	items := makeItems(3000, 0.1, 62)
	decisions, _, err := crowd.Annotate(items)
	if err != nil {
		t.Fatal(err)
	}
	// Count crowd false positives before review.
	fpBefore := 0
	for i := range decisions {
		if decisions[i].Label && !items[i].Truth {
			fpBefore++
		}
	}
	experts := NewPool(ExpertConfig(TaskCTH), randx.New(63))
	res, err := SpotCheck(items, decisions, experts, 300, randx.New(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != 300 {
		t.Errorf("sample size = %d", res.SampleSize)
	}
	if res.SampledAccuracy < 0.7 {
		t.Errorf("sampled accuracy = %v", res.SampledAccuracy)
	}
	if res.PositivesReviewed == 0 {
		t.Fatal("no positives reviewed")
	}
	// The review must remove most crowd false positives (in place).
	fpAfter := 0
	for i := range decisions {
		if decisions[i].Label && !items[i].Truth {
			fpAfter++
		}
	}
	if fpBefore > 0 && fpAfter*2 > fpBefore {
		t.Errorf("review left %d of %d false positives", fpAfter, fpBefore)
	}
	if res.PositivesOverturned == 0 {
		t.Error("noisy crowd positives should see some overturned")
	}
}

func TestSpotCheckEdgeCases(t *testing.T) {
	experts := NewPool(ExpertConfig(TaskDox), randx.New(65))
	if _, err := SpotCheck([]Item{{}}, nil, experts, 1, randx.New(66)); err == nil {
		t.Error("mismatched lengths should error")
	}
	res, err := SpotCheck(nil, nil, experts, 10, randx.New(67))
	if err != nil || res.SampleSize != 0 {
		t.Errorf("empty spot check: %+v, %v", res, err)
	}
}
