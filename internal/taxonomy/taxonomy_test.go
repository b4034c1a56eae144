package taxonomy

import (
	"testing"
)

func TestTenParents(t *testing.T) {
	if got := len(Parents()); got != 10 {
		t.Fatalf("parents = %d, want 10", got)
	}
	seen := map[Parent]bool{}
	for _, p := range Parents() {
		if seen[p] {
			t.Fatalf("duplicate parent %q", p)
		}
		seen[p] = true
		if p.Definition() == "" {
			t.Errorf("parent %q has no definition", p)
		}
	}
	if Parent("bogus").Definition() != "" {
		t.Error("bogus parent has a definition")
	}
}

func TestTwentyEightSubcategories(t *testing.T) {
	// 28 true subcategories plus the Generic parent marker (Table 11's
	// final row).
	if got := len(Subs()); got != SubcategoryCount+1 {
		t.Fatalf("subs = %d, want %d", got, SubcategoryCount+1)
	}
	trueSubs := 0
	for _, s := range Subs() {
		if s != SubGeneric {
			trueSubs++
		}
	}
	if trueSubs != SubcategoryCount {
		t.Fatalf("true subcategories = %d, want 28", trueSubs)
	}
	seen := map[Sub]bool{}
	for _, s := range Subs() {
		if seen[s] {
			t.Fatalf("duplicate sub %q", s)
		}
		seen[s] = true
		if s.Parent() == "" {
			t.Errorf("sub %q has no parent", s)
		}
	}
}

func TestSubsOfPartition(t *testing.T) {
	total := 0
	for _, p := range Parents() {
		subs := subsOf(p)
		if len(subs) == 0 {
			t.Errorf("parent %q has no subcategories", p)
		}
		for _, s := range subs {
			if s.Parent() != p {
				t.Errorf("sub %q assigned to wrong parent", s)
			}
		}
		total += len(subs)
	}
	if total != SubcategoryCount+1 {
		t.Fatalf("partition covers %d subs, want %d", total, SubcategoryCount+1)
	}
	// Spot-check counts against Table 11's structure.
	wantCounts := map[Parent]int{
		ContentLeakage: 6, Impersonation: 3, Lockout: 2, Overloading: 4,
		PublicOpinion: 2, Reporting: 3, Reputational: 3, Surveillance: 2,
		ToxicContent: 3, Generic: 1,
	}
	for p, want := range wantCounts {
		if got := len(subsOf(p)); got != want {
			t.Errorf("subcategories of %q = %d, want %d", p, got, want)
		}
	}
}

func TestLabelBasics(t *testing.T) {
	l := NewLabel(SubMassFlagging, SubDoxing, SubMassFlagging)
	if l.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (dedupe)", l.Size())
	}
	if !has(l, SubMassFlagging) || has(l, SubRaiding) {
		t.Error("Has misbehaves")
	}
	if !l.HasParent(Reporting) || !l.HasParent(ContentLeakage) || l.HasParent(Overloading) {
		t.Error("HasParent misbehaves")
	}
	if l.ParentCount() != 2 {
		t.Errorf("ParentCount = %d", l.ParentCount())
	}
	if l.Empty() || !NewLabel().Empty() {
		t.Error("Empty misbehaves")
	}
}

func TestLabelOrderStable(t *testing.T) {
	l := NewLabel(SubGeneric, SubDoxing, SubRaiding)
	subs := l.Subs()
	// Table 11 order: Doxing < Raiding < Generic.
	if subs[0] != SubDoxing || subs[1] != SubRaiding || subs[2] != SubGeneric {
		t.Errorf("Subs order = %v", subs)
	}
	parents := l.Parents()
	if parents[0] != ContentLeakage || parents[1] != Generic || parents[2] != Overloading {
		t.Errorf("Parents order = %v", parents)
	}
}

func TestLabelMerge(t *testing.T) {
	a := NewLabel(SubDoxing)
	b := NewLabel(SubRaiding, SubDoxing)
	m := a.Merge(b)
	if m.Size() != 2 || !has(m, SubDoxing) || !has(m, SubRaiding) {
		t.Errorf("Merge = %v", m.Subs())
	}
	// Merge does not mutate inputs.
	if a.Size() != 1 || b.Size() != 2 {
		t.Error("Merge mutated inputs")
	}
}

func TestCategorizePaperExamples(t *testing.T) {
	c := NewCategorizer()
	// Examples quoted verbatim in §6.1.1 must land in their categories.
	cases := []struct {
		text string
		want Parent
	}{
		{"Jane Roe must be harassed, get her phone number and address.", ContentLeakage},
		{"make deep fakes of porn with them. send them to all their friends and parents and family.", Impersonation},
		{"Physh his emails and find any info to blackmail with.", Lockout},
		{"Post FB & Twitter accounts so we can spam him with hate.", Overloading},
		{"We need to keep pushing that the LGBT flag is now a hate symbol. Use #ColorCulture on twitter and share on #DiversityWins.", PublicOpinion},
		{"Let's mass-report his twitter and youtube...", Reporting},
		{"Report him to the neighbours, he should be more careful with his atrocious beliefs if he doesn't want ostracism.", Reputational},
		{"We should find all their yachts and stick trackers to them. And track them on gps.", Surveillance},
		{"send her bleach and tell her she's trash", ToxicContent},
	}
	for _, tc := range cases {
		label := c.Categorize(tc.text)
		if !label.HasParent(tc.want) {
			t.Errorf("Categorize(%q) = %v, want parent %q", tc.text, label.Subs(), tc.want)
		}
	}
}

func TestCategorizeSubcategories(t *testing.T) {
	c := NewCategorizer()
	cases := []struct {
		text string
		want Sub
	}{
		{"everyone mass report his channel", SubMassFlagging},
		{"call the cops on him, tell them he has weapons", SubFalseReporting},
		{"raid the stream tonight", SubRaiding},
		{"leave one star reviews on her shop", SubNegativeRatings},
		{"spread the dox to every board", SubDoxPropagation},
		{"hijack the hashtag with our memes", SubHashtagHijacking},
		{"email her boss about what she posted", SubReputationPrivate},
		{"track him on gps", SubStalkingTracking},
		{"hack his account and post from it", SubAccountLockout},
		{"bully him until he leaves", SubGeneric},
	}
	for _, tc := range cases {
		label := c.Categorize(tc.text)
		if !has(label, tc.want) {
			t.Errorf("Categorize(%q) = %v, want %q", tc.text, label.Subs(), tc.want)
		}
	}
}

func TestCategorizeBenign(t *testing.T) {
	c := NewCategorizer()
	benign := []string{
		"anyone want to play ranked tonight?",
		"the new update is out, patch notes look good",
		"contact your local elected representative about the bill", // the paper's canonical false positive, must NOT be harassment
		"I reported my own bug on the tracker",
	}
	for _, b := range benign {
		if label := c.Categorize(b); !label.Empty() {
			t.Errorf("benign %q coded as %v", b, label.Subs())
		}
	}
}

func TestCategorizeMiscSuppression(t *testing.T) {
	c := NewCategorizer()
	// Text matching both a specific reporting cue and the generic
	// "report them" misc cue should carry only the specific label.
	label := c.Categorize("mass report them all, report them until the account is gone")
	if has(label, SubReportingMisc) {
		t.Errorf("misc not suppressed: %v", label.Subs())
	}
	if !has(label, SubMassFlagging) {
		t.Errorf("missing specific label: %v", label.Subs())
	}
	// Generic suppressed when specific parents matched.
	label = c.Categorize("bully him by raiding the stream, raid his chat")
	if has(label, SubGeneric) {
		t.Errorf("generic not suppressed: %v", label.Subs())
	}
}

func TestCategorizeMultiLabel(t *testing.T) {
	c := NewCategorizer()
	text := "get her phone number and address, then raid the stream and mass report her channel"
	label := c.Categorize(text)
	if label.ParentCount() < 3 {
		t.Errorf("multi-attack text produced %d parents: %v", label.ParentCount(), label.Subs())
	}
}

func TestDistribution(t *testing.T) {
	labels := []Label{
		NewLabel(SubMassFlagging),
		NewLabel(SubMassFlagging, SubDoxing),
		NewLabel(SubRaiding),
		NewLabel(),
	}
	d := NewDistribution(labels)
	if d.Total != 4 {
		t.Fatalf("Total = %d", d.Total)
	}
	if d.ParentHits[Reporting] != 2 || d.SubHits[SubMassFlagging] != 2 {
		t.Errorf("Reporting hits = %d, MassFlagging = %d", d.ParentHits[Reporting], d.SubHits[SubMassFlagging])
	}
	if got := d.ParentShare(Reporting); got != 0.5 {
		t.Errorf("ParentShare = %v", got)
	}
	if got := d.SubHits[SubRaiding]; got != 1 {
		t.Errorf("Raiding hits = %d", got)
	}
	empty := NewDistribution(nil)
	if empty.ParentShare(Reporting) != 0 || empty.SubHits[SubRaiding] != 0 {
		t.Error("empty distribution shares should be 0")
	}
}

func TestCoOccurrence(t *testing.T) {
	labels := []Label{
		NewLabel(SubStalkingTracking, SubDoxing),             // surveillance + content leakage
		NewLabel(SubStalkingTracking, SubDoxing, SubRaiding), // three types
		NewLabel(SubStalkingTracking),                        // single
		NewLabel(SubMassFlagging),                            // single
	}
	d := NewDistribution(labels)
	co := NewCoOccurrence(labels)
	if co.MultiType != 2 {
		t.Errorf("MultiType = %d", co.MultiType)
	}
	if co.BySize[1] != 2 || co.BySize[2] != 1 || co.BySize[3] != 1 {
		t.Errorf("BySize = %v", co.BySize)
	}
	// 2 of 3 surveillance labels also contain content leakage.
	got := co.ConditionalShare(Surveillance, ContentLeakage, d)
	if !floatEq(got, 2.0/3.0) {
		t.Errorf("ConditionalShare = %v", got)
	}
	if co.ConditionalShare(Lockout, ContentLeakage, d) != 0 {
		t.Error("absent parent should give 0")
	}
}

func floatEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// BenchmarkCategorize shows both regimes of the gated categorizer: a
// document with several cues (gate plus a handful of regexp
// verifications) and a cue-free one (the gate alone, as for nine
// documents in ten).
func BenchmarkCategorize(b *testing.B) {
	c := NewCategorizer()
	for _, bc := range []struct{ name, text string }{
		{"cues", "get her phone number and address, then raid the stream and mass report her channel until it is banned"},
		{"cue-free", "anyone want to play ranked tonight? the new update is out and the patch notes look good to me"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.text)))
			for i := 0; i < b.N; i++ {
				c.Categorize(bc.text)
			}
		})
	}
}

func TestEverySubcategoryHasCues(t *testing.T) {
	// The categorizer must be able to code every subcategory: each needs
	// at least one cue pattern, and the compiled rule set must cover all.
	for _, s := range Subs() {
		if len(cuePatterns[s]) == 0 {
			t.Errorf("subcategory %q has no cue patterns", s)
		}
	}
	c := NewCategorizer()
	covered := map[Sub]bool{}
	for _, r := range c.rules {
		covered[r.sub] = true
	}
	for _, s := range Subs() {
		if !covered[s] {
			t.Errorf("subcategory %q has no compiled rules", s)
		}
	}
}

func TestCategorizeDeterministic(t *testing.T) {
	c := NewCategorizer()
	text := "we need to mass report his channel, then raid the stream, and email her boss"
	a := c.Categorize(text).Subs()
	b := c.Categorize(text).Subs()
	if len(a) != len(b) {
		t.Fatal("nondeterministic categorization")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic categorization order")
		}
	}
}
