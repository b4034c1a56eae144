package corpus

import (
	"math"
	"sort"
	"testing"

	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/taxonomy"
)

// smallCfg keeps generation fast in tests while leaving enough positives
// for distributional checks.
var smallCfg = Config{Seed: 42, VolumeScale: 40_000, PositiveScale: 10}

func generateAll(t *testing.T) (*Generator, map[Dataset]*Corpus) {
	t.Helper()
	g := NewGenerator(smallCfg)
	return g, g.Generate()
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := NewGenerator(smallCfg)
	c1 := g1.Generate()
	g2 := NewGenerator(smallCfg)
	c2 := g2.Generate()
	for _, ds := range []Dataset{Boards, Chat, Gab, Pastes} {
		a, b := c1[ds], c2[ds]
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ: %d vs %d", ds, a.Len(), b.Len())
		}
		for i := range a.Docs {
			if a.Docs[i].Text != b.Docs[i].Text || a.Docs[i].ID != b.Docs[i].ID {
				t.Fatalf("%s: doc %d differs", ds, i)
			}
		}
	}
}

func TestGenerateVolumes(t *testing.T) {
	_, corpora := generateAll(t)
	// Relative volume ordering from Table 1 must hold: boards largest.
	if corpora[Boards].Len() <= corpora[Chat].Len() {
		t.Errorf("boards (%d) not larger than chat (%d)", corpora[Boards].Len(), corpora[Chat].Len())
	}
	if corpora[Chat].Len() <= corpora[Gab].Len() {
		t.Errorf("chat (%d) not larger than gab (%d)", corpora[Chat].Len(), corpora[Gab].Len())
	}
	for ds, c := range corpora {
		if c.Len() == 0 {
			t.Errorf("%s corpus empty", ds)
		}
	}
}

func TestPlantedPositiveCounts(t *testing.T) {
	_, corpora := generateAll(t)
	// Planted positives must track the scaled Table 4 true-positive
	// volumes (PositiveScale 10 here).
	cthBoards, doxBoards := countTrue(corpora[Boards])
	wantCTH := int(fullScaleTruePositives.CTH[PlatformBoards] / 10)
	wantDox := int(fullScaleTruePositives.Dox[PlatformBoards] / 10)
	if math.Abs(float64(cthBoards-wantCTH)) > float64(wantCTH)*0.1+10 {
		t.Errorf("boards CTH = %d, want ~%d", cthBoards, wantCTH)
	}
	if math.Abs(float64(doxBoards-wantDox)) > float64(wantDox)*0.1+10 {
		t.Errorf("boards dox = %d, want ~%d", doxBoards, wantDox)
	}
	// Pastes has no CTH (Table 2: the CTH task does not apply).
	cthPastes, doxPastes := countTrue(corpora[Pastes])
	if cthPastes != 0 {
		t.Errorf("pastes contains %d CTH, want 0", cthPastes)
	}
	if doxPastes == 0 {
		t.Error("pastes contains no doxes")
	}
	// Pastes carries the most doxes (Table 4 full-scale ordering).
	if doxPastes <= doxBoards {
		t.Errorf("pastes doxes (%d) not more than boards (%d)", doxPastes, doxBoards)
	}
}

func TestBoardsThreadStructure(t *testing.T) {
	_, corpora := generateAll(t)
	boards := corpora[Boards]
	threads := map[string][]*Document{}
	for i := range boards.Docs {
		d := &boards.Docs[i]
		if d.ThreadID == "" {
			t.Fatal("board doc without thread ID")
		}
		threads[d.ThreadID] = append(threads[d.ThreadID], d)
	}
	for id, docs := range threads {
		size := docs[0].ThreadSize
		if len(docs) != size {
			t.Fatalf("thread %s: %d docs but ThreadSize=%d", id, len(docs), size)
		}
		seen := map[int]bool{}
		for _, d := range docs {
			if d.PosInThread < 0 || d.PosInThread >= size {
				t.Fatalf("thread %s: position %d out of range", id, d.PosInThread)
			}
			if seen[d.PosInThread] {
				t.Fatalf("thread %s: duplicate position %d", id, d.PosInThread)
			}
			seen[d.PosInThread] = true
			if d.ThreadSize != size {
				t.Fatalf("thread %s: inconsistent sizes", id)
			}
		}
	}
	if len(threads) < 20 {
		t.Errorf("only %d threads generated", len(threads))
	}
}

func TestCTHPositionDistribution(t *testing.T) {
	// At a larger scale, CTH first-post rate should be near 3.7% and
	// positives should be spread through thread interiors.
	g := NewGenerator(Config{Seed: 7, VolumeScale: 10_000, PositiveScale: 10})
	boards := g.generateBoards()
	var first, last, total int
	for i := range boards.Docs {
		d := &boards.Docs[i]
		if !d.Truth.IsCTH {
			continue
		}
		total++
		if d.PosInThread == 0 {
			first++
		}
		if d.PosInThread == d.ThreadSize-1 {
			last++
		}
	}
	if total < 500 {
		t.Fatalf("too few CTH for position test: %d", total)
	}
	firstRate := float64(first) / float64(total)
	lastRate := float64(last) / float64(total)
	if firstRate > 0.09 {
		t.Errorf("CTH first-post rate = %.3f, want < 0.09 (paper: 0.037)", firstRate)
	}
	if lastRate > 0.09 {
		t.Errorf("CTH last-post rate = %.3f, want < 0.09 (paper: 0.027)", lastRate)
	}
}

func TestThreadOverlapStructure(t *testing.T) {
	g := NewGenerator(Config{Seed: 11, VolumeScale: 10_000, PositiveScale: 10})
	boards := g.generateBoards()
	cthThreads := map[string]bool{}
	doxThreads := map[string]bool{}
	var cthDocs, doxDocs int
	for i := range boards.Docs {
		d := &boards.Docs[i]
		if d.Truth.IsCTH {
			cthThreads[d.ThreadID] = true
			cthDocs++
		}
		if d.Truth.IsDox {
			doxThreads[d.ThreadID] = true
			doxDocs++
		}
	}
	var cthInDoxThreads int
	for i := range boards.Docs {
		d := &boards.Docs[i]
		if d.Truth.IsCTH && doxThreads[d.ThreadID] {
			cthInDoxThreads++
		}
	}
	share := float64(cthInDoxThreads) / float64(cthDocs)
	// Paper: 8.53%. Allow a generous band (dual-labelled docs add a bit).
	if share < 0.03 || share > 0.20 {
		t.Errorf("CTH-in-dox-thread share = %.3f, want ~0.085", share)
	}
}

func TestTable11MixtureRecovered(t *testing.T) {
	g := NewGenerator(Config{Seed: 13, VolumeScale: 10_000, PositiveScale: 5})
	boards := g.generateBoards()
	var labels []taxonomy.Label
	for i := range boards.Docs {
		if boards.Docs[i].Truth.IsCTH {
			labels = append(labels, boards.Docs[i].Truth.CTHLabel)
		}
	}
	dist := taxonomy.NewDistribution(labels)
	// Reporting dominates on boards (Table 5: 56.3%).
	repShare := dist.ParentShare(taxonomy.Reporting)
	if repShare < 0.40 || repShare > 0.70 {
		t.Errorf("boards reporting share = %.3f, want ~0.56", repShare)
	}
	// Content leakage around 25.6%.
	clShare := dist.ParentShare(taxonomy.ContentLeakage)
	if clShare < 0.15 || clShare > 0.40 {
		t.Errorf("boards content-leakage share = %.3f, want ~0.26", clShare)
	}
	// Lockout is rare (0.25%).
	if lo := dist.ParentShare(taxonomy.Lockout); lo > 0.02 {
		t.Errorf("boards lockout share = %.3f, want < 0.02", lo)
	}
	// Overloading is lower on boards than it will be on Gab (6% vs 20%).
	gab := g.generateFlat(PlatformGab)
	var gabLabels []taxonomy.Label
	for i := range gab.Docs {
		if gab.Docs[i].Truth.IsCTH {
			gabLabels = append(gabLabels, gab.Docs[i].Truth.CTHLabel)
		}
	}
	gabDist := taxonomy.NewDistribution(gabLabels)
	if dist.ParentShare(taxonomy.Overloading) >= gabDist.ParentShare(taxonomy.Overloading) {
		t.Errorf("overloading: boards %.3f >= gab %.3f, want boards < gab",
			dist.ParentShare(taxonomy.Overloading), gabDist.ParentShare(taxonomy.Overloading))
	}
}

func TestMultiTypeCoOccurrence(t *testing.T) {
	g := NewGenerator(Config{Seed: 17, VolumeScale: 10_000, PositiveScale: 5})
	corpora := g.Generate()
	var labels []taxonomy.Label
	for _, c := range corpora {
		for i := range c.Docs {
			if c.Docs[i].Truth.IsCTH {
				labels = append(labels, c.Docs[i].Truth.CTHLabel)
			}
		}
	}
	co := taxonomy.NewCoOccurrence(labels)
	multiShare := float64(co.MultiType) / float64(co.Total)
	if multiShare < 0.08 || multiShare > 0.20 {
		t.Errorf("multi-type share = %.3f, want ~0.13", multiShare)
	}
	// Of multi-type, two types dominate (92.3% in the paper).
	if co.BySize[2] < co.BySize[3] {
		t.Error("two-type labels should dominate three-type labels")
	}
}

func TestGenderMixture(t *testing.T) {
	g := NewGenerator(Config{Seed: 19, VolumeScale: 10_000, PositiveScale: 5})
	corpora := g.Generate()
	counts := map[gender.Gender]int{}
	total := 0
	for _, c := range corpora {
		for i := range c.Docs {
			d := &c.Docs[i]
			if d.Truth.IsCTH {
				counts[gender.Infer(d.Text)]++
				total++
			}
		}
	}
	// Table 10: unknown 43.3%, male 38.1%, female 18.5%.
	unknownShare := float64(counts[gender.Unknown]) / float64(total)
	if unknownShare < 0.30 || unknownShare > 0.60 {
		t.Errorf("unknown-gender share = %.3f, want ~0.43", unknownShare)
	}
	if counts[gender.Male] <= counts[gender.Female] {
		t.Errorf("male (%d) should exceed female (%d)", counts[gender.Male], counts[gender.Female])
	}
}

func TestPIIMixtureFollowsTable6(t *testing.T) {
	g := NewGenerator(Config{Seed: 23, VolumeScale: 10_000, PositiveScale: 5})
	pastes := g.generateFlat(PlatformPastes)
	counts := map[pii.Type]int{}
	doxes := 0
	for i := range pastes.Docs {
		d := &pastes.Docs[i]
		if !d.Truth.IsDox {
			continue
		}
		doxes++
		for _, ty := range d.Truth.DoxPII {
			counts[ty]++
		}
	}
	if doxes < 300 {
		t.Fatalf("too few pastes doxes: %d", doxes)
	}
	// Table 6 pastes column: addresses 45.67%, SSN 3.98%.
	addrShare := float64(counts[pii.Address]) / float64(doxes)
	if addrShare < 0.38 || addrShare > 0.54 {
		t.Errorf("pastes address share = %.3f, want ~0.46", addrShare)
	}
	ssnShare := float64(counts[pii.SSN]) / float64(doxes)
	if ssnShare > 0.09 {
		t.Errorf("pastes SSN share = %.3f, want ~0.04", ssnShare)
	}
	// Every dox carries at least one PII type.
	for i := range pastes.Docs {
		d := &pastes.Docs[i]
		if d.Truth.IsDox && len(d.Truth.DoxPII) == 0 {
			t.Fatal("dox with no PII")
		}
	}
}

func TestRepeatedDoxStructure(t *testing.T) {
	g := NewGenerator(Config{Seed: 29, VolumeScale: 10_000, PositiveScale: 5})
	corpora := g.Generate()
	// Count doxes per persona per dataset.
	personaDoxes := map[int][]Dataset{}
	for ds, c := range corpora {
		for i := range c.Docs {
			d := &c.Docs[i]
			if d.Truth.IsDox {
				personaDoxes[d.Truth.TargetID] = append(personaDoxes[d.Truth.TargetID], ds)
			}
		}
	}
	var totalDoxes, repeatedDoxes, crossDataset int
	for _, dss := range personaDoxes {
		totalDoxes += len(dss)
		if len(dss) > 1 {
			repeatedDoxes += len(dss)
			first := dss[0]
			for _, d := range dss[1:] {
				if d != first {
					crossDataset++
					break
				}
			}
		}
	}
	share := float64(repeatedDoxes) / float64(totalDoxes)
	// Paper: 20.1% of above-threshold doxes are linkable repeats.
	if share < 0.10 || share > 0.35 {
		t.Errorf("repeated-dox share = %.3f, want ~0.20", share)
	}
	// Cross-dataset repeats are rare (250 of 14,587 in the paper).
	if crossDataset*10 > repeatedDoxes {
		t.Errorf("cross-dataset repeats too common: %d of %d", crossDataset, repeatedDoxes)
	}
}

func TestBlogCorpus(t *testing.T) {
	g := NewGenerator(Config{Seed: 31})
	specs := DefaultBlogSpecs(10)
	blogs := g.GenerateBlogs(specs)
	perDomain := map[string][]*Document{}
	for i := range blogs.Docs {
		d := &blogs.Docs[i]
		perDomain[d.Domain] = append(perDomain[d.Domain], d)
	}
	if len(perDomain) != 3 {
		t.Fatalf("blog domains = %d, want 3", len(perDomain))
	}
	// The Torch keeps its full-scale structure: 93 posts, 33 doxes.
	torch := perDomain["torch-network.example"]
	if len(torch) != 93 {
		t.Errorf("torch posts = %d, want 93", len(torch))
	}
	torchDoxes := 0
	for _, d := range torch {
		if d.Truth.IsDox {
			torchDoxes++
		}
	}
	if torchDoxes != 33 {
		t.Errorf("torch doxes = %d, want 33", torchDoxes)
	}
	// Dox rate ordering per Table 8: torch >> noblogs > daily stormer.
	rate := func(domain string) float64 {
		docs := perDomain[domain]
		dox := 0
		for _, d := range docs {
			if d.Truth.IsDox {
				dox++
			}
		}
		return float64(dox) / float64(len(docs))
	}
	if !(rate("torch-network.example") > rate("noblogs.example")) {
		t.Error("torch dox rate should exceed noblogs")
	}
}

func TestBlogDoxPIIExtractable(t *testing.T) {
	g := NewGenerator(Config{Seed: 37})
	blogs := g.GenerateBlogs(DefaultBlogSpecs(10))
	ex := pii.NewExtractor()
	for i := range blogs.Docs {
		d := &blogs.Docs[i]
		if !d.Truth.IsDox {
			continue
		}
		if got := ex.Types(d.Text); len(got) == 0 {
			t.Fatalf("blog dox with no extractable PII:\n%s", d.Text)
		}
	}
}

func TestDatesWithinTable1Ranges(t *testing.T) {
	_, corpora := generateAll(t)
	for ds, c := range corpora {
		r := DatasetDates[ds]
		for i := range c.Docs {
			d := c.Docs[i].Date
			if d < r[0] || d > r[1] {
				t.Fatalf("%s doc date %s outside [%s, %s]", ds, d, r[0], r[1])
			}
		}
	}
}

func TestDocumentIDsUnique(t *testing.T) {
	_, corpora := generateAll(t)
	seen := map[string]bool{}
	for _, c := range corpora {
		for i := range c.Docs {
			id := c.Docs[i].ID
			if seen[id] {
				t.Fatalf("duplicate document ID %s", id)
			}
			seen[id] = true
		}
	}
}

func TestPlatformDatasetMapping(t *testing.T) {
	cases := map[Platform]Dataset{
		PlatformBoards: Boards, PlatformBlogs: Blogs, PlatformDiscord: Chat,
		PlatformTelegram: Chat, PlatformGab: Gab, PlatformPastes: Pastes,
	}
	for p, want := range cases {
		if got := p.Dataset(); got != want {
			t.Errorf("%s.Dataset() = %s, want %s", p, got, want)
		}
	}
}

func TestFilterAndCountTrue(t *testing.T) {
	_, corpora := generateAll(t)
	gab := corpora[Gab]
	cth, dox := countTrue(gab)
	got := len(gab.Filter(func(d *Document) bool { return d.Truth.IsCTH }))
	if got != cth {
		t.Errorf("Filter CTH = %d, counted = %d", got, cth)
	}
	if cth == 0 || dox == 0 {
		t.Error("gab should contain both positives")
	}
}

// countTrue returns the number of planted true CTH and dox documents.
func countTrue(c *Corpus) (cth, dox int) {
	for i := range c.Docs {
		if c.Docs[i].Truth.IsCTH {
			cth++
		}
		if c.Docs[i].Truth.IsDox {
			dox++
		}
	}
	return cth, dox
}

func BenchmarkGenerateBoards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGenerator(Config{Seed: 1, VolumeScale: 40_000, PositiveScale: 20})
		g.generateBoards()
	}
}

func TestToxicConcentrationAndBoost(t *testing.T) {
	g := NewGenerator(Config{Seed: 41, VolumeScale: 10_000, PositiveScale: 10})
	boards := g.generateBoards()

	// Group board posts by thread, tracking toxic CTH presence.
	type tinfo struct {
		size     int
		cth      int
		toxicCTH int
	}
	threads := map[string]*tinfo{}
	for i := range boards.Docs {
		d := &boards.Docs[i]
		ti := threads[d.ThreadID]
		if ti == nil {
			ti = &tinfo{size: d.ThreadSize}
			threads[d.ThreadID] = ti
		}
		if d.Truth.IsCTH {
			ti.cth++
			if d.Truth.CTHLabel.HasParent(taxonomy.ToxicContent) {
				ti.toxicCTH++
			}
		}
	}

	var toxicSizes, otherCTHSizes []float64
	toxicDocs, totalCTH := 0, 0
	for _, ti := range threads {
		if ti.toxicCTH > 0 {
			// Toxic CTH concentrate: toxic threads should be all-toxic.
			if ti.toxicCTH != ti.cth {
				t.Errorf("mixed toxic thread: %d toxic of %d CTH", ti.toxicCTH, ti.cth)
			}
			for i := 0; i < ti.cth; i++ {
				toxicSizes = append(toxicSizes, float64(ti.size))
			}
		} else if ti.cth > 0 {
			for i := 0; i < ti.cth; i++ {
				otherCTHSizes = append(otherCTHSizes, float64(ti.size))
			}
		}
		toxicDocs += ti.toxicCTH
		totalCTH += ti.cth
	}
	// Toxic share near the Table 11 boards rate (7.62%).
	share := float64(toxicDocs) / float64(totalCTH)
	if share < 0.04 || share > 0.12 {
		t.Errorf("toxic CTH share = %.3f, want ~0.076", share)
	}
	// Toxic threads are response-boosted: median size clearly larger.
	ms := func(xs []float64) float64 {
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		return cp[len(cp)/2]
	}
	if len(toxicSizes) == 0 || len(otherCTHSizes) == 0 {
		t.Fatal("missing toxic or non-toxic CTH threads")
	}
	if ms(toxicSizes) < ms(otherCTHSizes)*1.5 {
		t.Errorf("toxic median %v not boosted over %v", ms(toxicSizes), ms(otherCTHSizes))
	}
}

func TestOverlapQuotaAtGeneration(t *testing.T) {
	g := NewGenerator(Config{Seed: 43, VolumeScale: 10_000, PositiveScale: 10})
	boards := g.generateBoards()
	doxThreads := map[string]bool{}
	for i := range boards.Docs {
		if boards.Docs[i].Truth.IsDox {
			doxThreads[boards.Docs[i].ThreadID] = true
		}
	}
	var cthDocs, overlapped int
	for i := range boards.Docs {
		d := &boards.Docs[i]
		if d.Truth.IsCTH {
			cthDocs++
			if doxThreads[d.ThreadID] {
				overlapped++
			}
		}
	}
	share := float64(overlapped) / float64(cthDocs)
	// The generator plants ~8.5% (§6.3); allow a band for the dual docs
	// and quota rounding.
	if share < 0.05 || share > 0.14 {
		t.Errorf("generated CTH-dox overlap = %.3f, want ~0.085", share)
	}
}

func TestRepeatedDoxPIIReuse(t *testing.T) {
	g := NewGenerator(Config{Seed: 47, VolumeScale: 20_000, PositiveScale: 10})
	pastes := g.generateFlat(PlatformPastes)
	// Group dox PII sets by target.
	byTarget := map[int][][]pii.Type{}
	for i := range pastes.Docs {
		d := &pastes.Docs[i]
		if d.Truth.IsDox {
			byTarget[d.Truth.TargetID] = append(byTarget[d.Truth.TargetID], d.Truth.DoxPII)
		}
	}
	repeats := 0
	for _, sets := range byTarget {
		if len(sets) < 2 {
			continue
		}
		repeats++
		// Later doxes of the same persona must be supersets of earlier
		// ones and must carry a linkable OSN handle.
		have := map[pii.Type]bool{}
		for _, t2 := range sets[0] {
			have[t2] = true
		}
		for _, set := range sets[1:] {
			next := map[pii.Type]bool{}
			for _, t2 := range set {
				next[t2] = true
			}
			for t2 := range have {
				if !next[t2] {
					t.Fatalf("repeated dox dropped PII type %s", t2)
				}
			}
			osn := false
			for _, t2 := range set {
				switch t2 {
				case pii.Facebook, pii.Instagram, pii.Twitter, pii.YouTube:
					osn = true
				}
			}
			if !osn {
				t.Fatal("repeated dox without OSN handle")
			}
			have = next
		}
	}
	if repeats < 20 {
		t.Fatalf("too few repeated targets to test: %d", repeats)
	}
}
