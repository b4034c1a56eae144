package core

import (
	"fmt"
	"sort"
	"strings"

	"harassrepro/internal/annotate"
	"harassrepro/internal/blogs"
	"harassrepro/internal/corpus"
	"harassrepro/internal/gender"
	"harassrepro/internal/harm"
	"harassrepro/internal/pii"
	"harassrepro/internal/query"
	"harassrepro/internal/randx"
	"harassrepro/internal/repeatdox"
	"harassrepro/internal/report"
	"harassrepro/internal/stats"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/threads"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(p *Pipeline) (string, error)
}

// Experiments returns the registry of all table/figure reproductions in
// paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: Raw data sets", (*Pipeline).Table1},
		{"table2", "Table 2: Annotated training data per task", (*Pipeline).Table2Report},
		{"table3", "Table 3: Classifier performance", (*Pipeline).Table3},
		{"table4", "Table 4: Threshold evaluation per task and data set", (*Pipeline).Table4},
		{"table5", "Table 5: CTH parent attack types per data set", (*Pipeline).Table5},
		{"table6", "Table 6: PII in doxes per data set", (*Pipeline).Table6},
		{"table7", "Table 7: Harm-risk taxonomy", (*Pipeline).Table7},
		{"table8", "Table 8: Blog analysis overview", (*Pipeline).Table8},
		{"table9", "Table 9: Taxonomy of attacks in blogs", (*Pipeline).Table9},
		{"table10", "Table 10: Full taxonomy by target gender", (*Pipeline).Table10},
		{"table11", "Table 11: Full taxonomy by data set", (*Pipeline).Table11},
		{"fig1", "Figure 1: Pipeline document counts", (*Pipeline).Figure1},
		{"fig2", "Figure 2: Harm-risk overlap", (*Pipeline).Figure2},
		{"fig3", "Figure 3: Annotation task template", (*Pipeline).Figure3},
		{"fig4", "Figure 4: Seed query evaluation", (*Pipeline).Figure4},
		{"fig5", "Figure 5: Thread-size CDF, CTH vs baseline", (*Pipeline).Figure5},
		{"fig6", "Figure 6: Thread sizes per attack type", (*Pipeline).Figure6},
		{"overlap", "§6.3: CTH/dox thread overlap", (*Pipeline).OverlapReport},
		{"positions", "§6.3/§7.4: positions in threads", (*Pipeline).PositionsReport},
		{"cooccur", "§6.2: attack-type co-occurrence", (*Pipeline).CoOccurrenceReport},
		{"repeats", "§7.3: repeated doxes", (*Pipeline).RepeatedDoxReport},
		{"agreement", "§5.3: annotation agreement", (*Pipeline).AgreementReport},
		{"piico", "§7.1: PII co-occurrence in doxes", (*Pipeline).PIICoOccurrenceReport},
		{"chisq", "§6.2: chi-square tests on reporting subcategories", (*Pipeline).ChiSquareReport},
		{"genderresp", "§6.3: response sizes by target gender", (*Pipeline).GenderResponseReport},
		{"ablate-span", "Ablation §5.2: long-document span strategies", (*Pipeline).SpanStrategyAblation},
		{"ablate-combined", "Ablation §5.4: combined vs per-data-set training", (*Pipeline).CombinedTrainingAblation},
		{"ablate-chatsplit", "Ablation Table 4: unified vs split chat thresholds", (*Pipeline).ChatSplitAblation},
		{"ablate-active", "Ablation §5.3: active learning vs random sampling", (*Pipeline).ActiveLearningAblation},
		{"ablate-baseline", "Ablation: logistic regression vs naive Bayes", (*Pipeline).BaselineClassifierAblation},
		{"calibration", "Classifier probability calibration", (*Pipeline).CalibrationExperiment},
		{"ablate-crawl", "Ablation §4: crawl completeness vs repeated-dox measurement", (*Pipeline).CrawlCompletenessAblation},
		{"scores", "Classifier score distributions", (*Pipeline).ScoreDistributionReport},
	}
}

// RunExperiment executes one experiment by ID.
func (p *Pipeline) RunExperiment(id string) (string, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			out, err := e.Run(p)
			if err != nil {
				return "", err
			}
			return e.Title + "\n\n" + out, nil
		}
	}
	return "", fmt.Errorf("core: unknown experiment %q", id)
}

// Table1 reports the raw data set volumes and date ranges at the run's
// scale alongside the paper's full-scale values.
func (p *Pipeline) Table1() (string, error) {
	t := report.NewTable("", "Data set", "Posts/Messages (generated)", "Paper full scale", "Min Date", "Max Date")
	for _, ds := range corpus.Datasets() {
		n := 0
		if ds == corpus.Blogs {
			n = p.Blogs.Len()
		} else if c, ok := p.Corpora[ds]; ok {
			n = c.Len()
		}
		r := corpus.DatasetDates[ds]
		t.AddRow(string(ds), fmt.Sprintf("%d", n), fmt.Sprintf("%d", corpus.RawSizes[ds]), r[0], r[1])
	}
	t.AddRow("", "", "", "", "")
	return t.String() + fmt.Sprintf("VolumeScale 1:%d, PositiveScale 1:%d\n", p.Config.VolumeScale, p.Config.PositiveScale), nil
}

// Table2Report reports annotated training set sizes per task/data set.
func (p *Pipeline) Table2Report() (string, error) {
	t := report.NewTable("", "Data set", "Dox Pos", "Dox Neg", "CTH Pos", "CTH Neg")
	var dp, dn, cp, cn int
	for _, ds := range []corpus.Dataset{corpus.Boards, corpus.Chat, corpus.Gab, corpus.Pastes} {
		d := p.Dox.Table2[ds]
		c := p.CTH.Table2[ds]
		cthPos, cthNeg := fmt.Sprintf("%d", c.Pos), fmt.Sprintf("%d", c.Neg)
		if ds == corpus.Pastes {
			cthPos, cthNeg = "-", "-" // the CTH task does not apply to pastes
		}
		t.AddRow(string(ds), fmt.Sprintf("%d", d.Pos), fmt.Sprintf("%d", d.Neg), cthPos, cthNeg)
		dp += d.Pos
		dn += d.Neg
		cp += c.Pos
		cn += c.Neg
	}
	t.AddRow("Total", fmt.Sprintf("%d", dp), fmt.Sprintf("%d", dn), fmt.Sprintf("%d", cp), fmt.Sprintf("%d", cn))
	return t.String(), nil
}

// Table3 reports classifier performance per task and label.
func (p *Pipeline) Table3() (string, error) {
	t := report.NewTable("", "Classifier", "Text length", "Label", "F1", "Precision", "Recall")
	add := func(run *TaskRun, name string) {
		rep := run.Eval
		for _, lm := range []struct {
			label string
			f1    float64
			prec  float64
			rec   float64
		}{
			{rep.Positive.Label, rep.Positive.F1, rep.Positive.Precision, rep.Positive.Recall},
			{rep.Negative.Label, rep.Negative.F1, rep.Negative.Precision, rep.Negative.Recall},
			{"Weighted Avg.", rep.WeightedAvg.F1, rep.WeightedAvg.Precision, rep.WeightedAvg.Recall},
			{"Macro Avg.", rep.MacroAvg.F1, rep.MacroAvg.Precision, rep.MacroAvg.Recall},
		} {
			t.AddRow(name, fmt.Sprintf("%d", run.TextLen), lm.label, report.F(lm.f1), report.F(lm.prec), report.F(lm.rec))
		}
		t.AddRow(name, "", "AUC-ROC", report.F3(rep.AUC), "", "")
	}
	add(p.Dox, "Doxing")
	add(p.CTH, "Call to harassment")
	return t.String(), nil
}

// Table4 reports the threshold evaluation rows.
func (p *Pipeline) Table4() (string, error) {
	t := report.NewTable("", "Classifier", "Data set", "Threshold t", "Nr > threshold", "Nr. annotated", "True Positive")
	add := func(run *TaskRun, name string, plats []corpus.Platform) {
		total := PlatformResult{}
		for _, plat := range plats {
			r := run.Results[plat]
			if r == nil {
				continue
			}
			star := ""
			if r.AnnotatedAll {
				star = "*"
			}
			t.AddRow(name, string(plat), report.F3(r.Threshold),
				fmt.Sprintf("%d", r.AboveThreshold),
				star+fmt.Sprintf("%d", r.Annotated),
				fmt.Sprintf("%d", r.TruePositives))
			total.AboveThreshold += r.AboveThreshold
			total.Annotated += r.Annotated
			total.TruePositives += r.TruePositives
		}
		t.AddRow(name, "Total", "-",
			fmt.Sprintf("%d", total.AboveThreshold),
			fmt.Sprintf("%d", total.Annotated),
			fmt.Sprintf("%d", total.TruePositives))
	}
	add(p.Dox, "Doxing", []corpus.Platform{corpus.PlatformBoards, corpus.PlatformDiscord, corpus.PlatformGab, corpus.PlatformPastes, corpus.PlatformTelegram})
	add(p.CTH, "Call to harassment", []corpus.Platform{corpus.PlatformBoards, corpus.PlatformGab, corpus.PlatformDiscord, corpus.PlatformTelegram})
	return t.String() + "* every document above the threshold was annotated\n", nil
}

// computeCodedCTH codes the annotated CTH positives with the taxonomy
// categorizer, grouped per Table 5 column. Compute body for the
// coded-cth artifact; use the codedCTH accessor (artifacts.go).
func (p *Pipeline) computeCodedCTH() map[string][]taxonomy.Label {
	cat := taxonomy.Shared()
	out := map[string][]taxonomy.Label{}
	for plat, r := range p.CTH.Results {
		col := columnFor(plat)
		for _, d := range r.Positives {
			label := cat.Categorize(d.Text)
			if label.Empty() {
				label = taxonomy.NewLabel(taxonomy.SubGeneric)
			}
			out[col] = append(out[col], label)
		}
	}
	return out
}

// columnFor maps a platform to its Table 5/11 column.
func columnFor(plat corpus.Platform) string {
	switch plat {
	case corpus.PlatformDiscord, corpus.PlatformTelegram:
		return "Chat"
	case corpus.PlatformGab:
		return "Gab"
	default:
		return "Boards"
	}
}

// Table5 reports parent attack types per data set.
func (p *Pipeline) Table5() (string, error) {
	coded := p.codedCTH()
	cols := []string{"Boards", "Chat", "Gab"}
	t := report.NewTable("", "Attack Type", "Boards", "Chat", "Gab")
	dists := map[string]taxonomy.Distribution{}
	header := []string{"Size"}
	for _, c := range cols {
		dists[c] = taxonomy.NewDistribution(coded[c])
		header = append(header, fmt.Sprintf("%d", len(coded[c])))
	}
	t.AddRow(header...)
	for _, parent := range taxonomy.Parents() {
		row := []string{string(parent)}
		for _, c := range cols {
			d := dists[c]
			row = append(row, report.Pct(d.ParentHits[parent], d.Total))
		}
		t.AddRow(row...)
	}
	return t.String() + "Columns do not sum to 100%: a CTH can include multiple attack types.\n", nil
}

// Table11 reports the full subcategory taxonomy per data set.
func (p *Pipeline) Table11() (string, error) {
	coded := p.codedCTH()
	cols := []string{"Boards", "Chat", "Gab"}
	t := report.NewTable("", "Attack Type", "Boards", "Chat", "Gab")
	dists := map[string]taxonomy.Distribution{}
	header := []string{"Size"}
	for _, c := range cols {
		dists[c] = taxonomy.NewDistribution(coded[c])
		header = append(header, fmt.Sprintf("%d", len(coded[c])))
	}
	t.AddRow(header...)
	for _, sub := range taxonomy.Subs() {
		row := []string{string(sub)}
		for _, c := range cols {
			d := dists[c]
			row = append(row, report.Pct(d.SubHits[sub], d.Total))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Table10 reports the full taxonomy per inferred target gender.
func (p *Pipeline) Table10() (string, error) {
	cat := taxonomy.Shared()
	byGender := map[gender.Gender][]taxonomy.Label{}
	for _, d := range p.CTH.AllPositives() {
		label := cat.Categorize(d.Text)
		if label.Empty() {
			label = taxonomy.NewLabel(taxonomy.SubGeneric)
		}
		g := gender.Infer(d.Text)
		byGender[g] = append(byGender[g], label)
	}
	t := report.NewTable("", "Attack Type", "Unknown", "Female", "Male")
	dists := map[gender.Gender]taxonomy.Distribution{}
	header := []string{"Size"}
	for _, g := range gender.All() {
		dists[g] = taxonomy.NewDistribution(byGender[g])
		header = append(header, fmt.Sprintf("%d", len(byGender[g])))
	}
	t.AddRow(header...)
	for _, sub := range taxonomy.Subs() {
		row := []string{string(sub)}
		for _, g := range gender.All() {
			d := dists[g]
			row = append(row, report.Pct(d.SubHits[sub], d.Total))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// computeDoxPIIByColumn extracts PII from the annotated dox positives
// per Table 6 column. Compute body for the dox-pii artifact; use the
// doxPIIByColumn accessor (artifacts.go).
func (p *Pipeline) computeDoxPIIByColumn() doxPII {
	ex := pii.NewExtractor()
	types := map[string][][]pii.Type{}
	docs := map[string][]*corpus.Document{}
	for plat, r := range p.Dox.Results {
		col := columnFor(plat)
		if plat == corpus.PlatformPastes {
			col = "Paste"
		}
		for _, d := range r.Positives {
			types[col] = append(types[col], ex.Types(d.Text))
			docs[col] = append(docs[col], d)
		}
	}
	return doxPII{types: types, docs: docs}
}

// Table6 reports PII prevalence in doxes per data set.
func (p *Pipeline) Table6() (string, error) {
	byCol, _ := p.doxPIIByColumn()
	cols := []string{"Boards", "Chat", "Gab", "Paste"}
	t := report.NewTable("", "PII", "Boards", "Chat", "Gab", "Paste")
	header := []string{"Size"}
	for _, c := range cols {
		header = append(header, fmt.Sprintf("%d", len(byCol[c])))
	}
	t.AddRow(header...)
	for _, ty := range pii.AllTypes() {
		row := []string{string(ty)}
		for _, c := range cols {
			count := 0
			for _, ts := range byCol[c] {
				for _, got := range ts {
					if got == ty {
						count++
						break
					}
				}
			}
			row = append(row, report.Pct(count, len(byCol[c])))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Table7 reports the harm-risk taxonomy mapping.
func (p *Pipeline) Table7() (string, error) {
	t := report.NewTable("", "Harm Risk", "PII")
	t.AddRow("Online", "Email, Instagram, Facebook, Twitter, YouTube")
	t.AddRow("Physical", "Address, Zip Code")
	t.AddRow("Economic / Identity", "Email, Credit card number, SSN")
	t.AddRow("Reputation*", "Family member names, place of employment")
	return t.String() + "* detected via the manual-annotation stand-in (employment/family mentions)\n", nil
}

// Figure2 computes harm-risk overlap over annotated doxes.
func (p *Pipeline) Figure2() (string, error) {
	_, docsByCol := p.doxPIIByColumn()
	ex := pii.NewExtractor()
	var perDox [][]harm.Risk
	var pastesAllRisks, allRisks int
	for col, docs := range docsByCol {
		for _, d := range docs {
			risks := harm.Profile(ex.Types(d.Text), d.Text)
			perDox = append(perDox, risks)
			if len(risks) == len(harm.Risks()) {
				allRisks++
				if col == "Paste" {
					pastesAllRisks++
				}
			}
		}
	}
	ov := harm.ComputeOverlap(perDox)

	// Per-platform no-risk shares (§7.2 notes that more than 50% of
	// Discord doxes carried no harm-risk indicator).
	noRiskByCol := map[string]string{}
	for col, docs := range docsByCol {
		none := 0
		for _, d := range docs {
			if len(harm.Profile(ex.Types(d.Text), d.Text)) == 0 {
				none++
			}
		}
		if len(docs) > 0 {
			noRiskByCol[col] = fmt.Sprintf("%.0f%%", 100*float64(none)/float64(len(docs)))
		}
	}

	maxCols := 15
	combos := ov.Combinations
	if len(combos) > maxCols {
		combos = combos[:maxCols]
	}
	var names []string
	var counts []int
	for _, c := range combos {
		names = append(names, c.Key())
		counts = append(counts, c.Count)
	}
	var rows []report.VennRow
	for _, r := range harm.Risks() {
		row := report.VennRow{Risk: string(r), Total: ov.Totals[r]}
		for _, c := range combos {
			member := false
			for _, cr := range c.Risks {
				if cr == r {
					member = true
				}
			}
			row.Cells = append(row.Cells, member)
		}
		rows = append(rows, row)
	}
	out := report.RenderVenn("", names, counts, rows)
	out += fmt.Sprintf("\nDoxes: %d; no risk indicators: %d (%.1f%%)\n", ov.Doxes, ov.NoRisk, 100*float64(ov.NoRisk)/float64(max(1, ov.Doxes)))
	var cols []string
	for c := range noRiskByCol {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	out += "No-risk share per data set (paper: >50% on Discord):"
	for _, c := range cols {
		out += fmt.Sprintf(" %s %s;", c, noRiskByCol[c])
	}
	out += "\n"
	out += fmt.Sprintf("All four risks: %d (%.1f%%), of which pastes: %.0f%%\n",
		allRisks, 100*float64(allRisks)/float64(max(1, ov.Doxes)),
		100*float64(pastesAllRisks)/float64(max(1, allRisks)))
	return out, nil
}

// Figure3 renders the annotation task templates.
func (p *Pipeline) Figure3() (string, error) {
	return annotate.TaskTemplate(annotate.TaskDox) + "\n" + annotate.TaskTemplate(annotate.TaskCTH), nil
}

// Figure4 evaluates the seed query over the boards corpus.
func (p *Pipeline) Figure4() (string, error) {
	boards := p.Corpora[corpus.Boards]
	q := query.WithAttackTerms(query.Figure4())
	var matched, matchedCTH, totalCTH int
	for i := range boards.Docs {
		d := &boards.Docs[i]
		m := q.Match(d.Text)
		if m {
			matched++
		}
		if d.Truth.IsCTH {
			totalCTH++
			if m {
				matchedCTH++
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Seed query: mobilizing-language clause AND in/outgroup subclause AND attack terms\n")
	fmt.Fprintf(&b, "Boards documents: %d; matched: %d\n", boards.Len(), matched)
	fmt.Fprintf(&b, "True CTH recalled: %d / %d (%.1f%%)\n", matchedCTH, totalCTH, 100*float64(matchedCTH)/float64(max(1, totalCTH)))
	fmt.Fprintf(&b, "Match precision vs ground truth: %.1f%%\n", 100*float64(matchedCTH)/float64(max(1, matched)))
	return b.String(), nil
}

// computeBoardPosts adapts the boards corpus to the thread-analysis
// model, using the classifier-above-threshold positives (as §6.3 does)
// for CTH and dox flags. Compute body for the board-posts artifact; use
// the boardPosts accessor (artifacts.go).
func (p *Pipeline) computeBoardPosts() []threads.Post {
	cat := taxonomy.Shared()
	cthIDs := map[string]bool{}
	for _, d := range p.CTH.Results[corpus.PlatformBoards].Positives {
		cthIDs[d.ID] = true
	}
	doxIDs := map[string]bool{}
	for _, d := range p.Dox.Results[corpus.PlatformBoards].Positives {
		doxIDs[d.ID] = true
	}
	boards := p.Corpora[corpus.Boards]
	posts := make([]threads.Post, 0, boards.Len())
	for i := range boards.Docs {
		d := &boards.Docs[i]
		post := threads.Post{
			ThreadID:   d.ThreadID,
			Pos:        d.PosInThread,
			ThreadSize: d.ThreadSize,
			IsCTH:      cthIDs[d.ID],
			IsDox:      doxIDs[d.ID],
		}
		if post.IsCTH {
			label := cat.Categorize(d.Text)
			if label.Empty() {
				label = taxonomy.NewLabel(taxonomy.SubGeneric)
			}
			post.Label = label
		}
		posts = append(posts, post)
	}
	return posts
}

// baselineSizes samples thread sizes of random non-positive board posts
// (the paper's 5,000-random-post baseline, "manually verified that they
// did not contain any calls to harassment"). Threads containing
// toxic-content CTH are excluded: at the paper's scale (positives are
// <0.01% of posts) a random post essentially never lands in one of those
// rare boosted threads, whereas at this reproduction's density they
// would dominate the upper tail and confound every other comparison.
func (p *Pipeline) baselineSizes(posts []threads.Post) []float64 {
	rng := p.rng.Split("baseline")
	toxicThread := map[string]bool{}
	for i := range posts {
		if posts[i].IsCTH && posts[i].Label.HasParent(taxonomy.ToxicContent) {
			toxicThread[posts[i].ThreadID] = true
		}
	}
	var candidates []float64
	for i := range posts {
		q := &posts[i]
		if !q.IsCTH && !q.IsDox && !toxicThread[q.ThreadID] {
			candidates = append(candidates, float64(q.ThreadSize))
		}
	}
	randx.Shuffle(rng, candidates)
	if len(candidates) > 5000 {
		candidates = candidates[:5000]
	}
	return candidates
}

// Figure5 renders the thread-size CDF of CTH threads vs the baseline.
func (p *Pipeline) Figure5() (string, error) {
	posts := p.boardPosts()
	cthSizes := threads.ThreadSizes(posts, func(q *threads.Post) bool { return q.IsCTH })
	base := p.baselineSizes(posts)
	cthX, cthP := stats.NewECDF(cthSizes).Points()
	baseX, baseP := stats.NewECDF(base).Points()
	out := report.RenderCDF("Thread size CDF (log x)", []report.CDFSeries{
		{Name: fmt.Sprintf("CTH threads (n=%d)", len(cthSizes)), Xs: cthX, Ps: cthP},
		{Name: fmt.Sprintf("Random baseline (n=%d)", len(base)), Xs: baseX, Ps: baseP},
	}, 72, 18)
	return out, nil
}

// Figure6 renders per-attack-type thread-size distributions plus the
// significance tests of §6.3.
func (p *Pipeline) Figure6() (string, error) {
	posts := p.boardPosts()
	base := p.baselineSizes(posts)
	var cthPosts []threads.Post
	for _, q := range posts {
		if q.IsCTH {
			cthPosts = append(cthPosts, q)
		}
	}
	rows := threads.CompareResponses(cthPosts, base, 0.1, 5)
	var boxes []report.BoxStats
	for _, r := range rows {
		if r.Excluded {
			continue
		}
		boxes = append(boxes, report.BoxStats{
			Name: string(r.Attack), N: r.N,
			Min:    stats.Quantile(r.Sizes, 0),
			Q1:     stats.Quantile(r.Sizes, 0.25),
			Median: stats.Quantile(r.Sizes, 0.5),
			Q3:     stats.Quantile(r.Sizes, 0.75),
			Max:    stats.Quantile(r.Sizes, 1),
		})
	}
	boxes = append(boxes, report.BoxStats{
		Name: "Baseline", N: len(base),
		Min:    stats.Quantile(base, 0),
		Q1:     stats.Quantile(base, 0.25),
		Median: stats.Quantile(base, 0.5),
		Q3:     stats.Quantile(base, 0.75),
		Max:    stats.Quantile(base, 1),
	})
	out := report.RenderBoxes("Thread sizes per attack type", boxes)
	tt := report.NewTable("\nLog-size Welch t-tests vs baseline (BH-corrected, q=0.1)",
		"Attack Type", "N", "t", "raw p", "adj p", "significant")
	for _, r := range rows {
		if r.Excluded {
			tt.AddRow(string(r.Attack), fmt.Sprintf("%d", r.N), "-", "-", "-", "excluded")
			continue
		}
		tt.AddRow(string(r.Attack), fmt.Sprintf("%d", r.N), report.F3(r.T), report.F3(r.RawP), report.F3(r.AdjustedP), fmt.Sprintf("%v", r.Significant))
	}
	return out + tt.String(), nil
}

// computeAboveThresholdBoardPosts adapts the boards corpus to the
// thread model using the complete above-threshold sets for CTH/dox
// flags — §6.3's overlap analysis explicitly uses "all calls to
// harassment and doxes above the threshold", not the smaller annotated
// sets. Compute body for the above-board-posts artifact.
func (p *Pipeline) computeAboveThresholdBoardPosts() []threads.Post {
	cthIDs := map[string]bool{}
	for _, d := range p.CTH.Results[corpus.PlatformBoards].Above {
		cthIDs[d.ID] = true
	}
	doxIDs := map[string]bool{}
	for _, d := range p.Dox.Results[corpus.PlatformBoards].Above {
		doxIDs[d.ID] = true
	}
	boards := p.Corpora[corpus.Boards]
	posts := make([]threads.Post, 0, boards.Len())
	for i := range boards.Docs {
		d := &boards.Docs[i]
		posts = append(posts, threads.Post{
			ThreadID:   d.ThreadID,
			Pos:        d.PosInThread,
			ThreadSize: d.ThreadSize,
			IsCTH:      cthIDs[d.ID],
			IsDox:      doxIDs[d.ID],
		})
	}
	return posts
}

// OverlapReport reports the §6.3 thread overlap statistics.
func (p *Pipeline) OverlapReport() (string, error) {
	posts := p.aboveThresholdBoardPosts()
	ov := threads.Overlap(posts)
	cthRate, doxRate := threads.RandomThreadRates(posts)
	var b strings.Builder
	fmt.Fprintf(&b, "CTH docs sharing a thread with a dox: %d / %d (%.2f%%; paper 8.53%%)\n",
		ov.CTHWithDoxInThread, ov.CTHDocs, 100*ov.CTHShare)
	fmt.Fprintf(&b, "Dox docs sharing a thread with a CTH: %d / %d (%.2f%%; paper 17.85%%)\n",
		ov.DoxWithCTHInThread, ov.DoxDocs, 100*ov.DoxShare)
	fmt.Fprintf(&b, "Posts that are both dox and CTH: %d (paper: 95)\n", ov.BothInOnePost)
	fmt.Fprintf(&b, "Random thread contains CTH: %.2f%%; dox: %.2f%% (paper 0.20%% / 0.10%%)\n",
		100*cthRate, 100*doxRate)
	return b.String(), nil
}

// PositionsReport reports where CTH and doxes sit within threads.
func (p *Pipeline) PositionsReport() (string, error) {
	posts := p.boardPosts()
	cth := threads.Positions(posts, func(q *threads.Post) bool { return q.IsCTH })
	dox := threads.Positions(posts, func(q *threads.Post) bool { return q.IsDox })
	t := report.NewTable("", "Class", "N", "First %", "Last %", "Median pos", "Mean pos", "StdDev")
	t.AddRow("CTH", fmt.Sprintf("%d", cth.N),
		report.F(100*cth.FirstShare), report.F(100*cth.LastShare),
		report.F(cth.Median), report.F(cth.Mean), report.F(cth.StdDev))
	t.AddRow("Dox", fmt.Sprintf("%d", dox.N),
		report.F(100*dox.FirstShare), report.F(100*dox.LastShare),
		report.F(dox.Median), report.F(dox.Mean), report.F(dox.StdDev))
	return t.String() + "Paper: CTH 3.7% first / 2.7% last; dox 9.7% first / 2.7% last.\n", nil
}

// CoOccurrenceReport reports §6.2 attack-type co-occurrence.
func (p *Pipeline) CoOccurrenceReport() (string, error) {
	cat := taxonomy.Shared()
	var labels []taxonomy.Label
	for _, d := range p.CTH.AllPositives() {
		label := cat.Categorize(d.Text)
		if label.Empty() {
			label = taxonomy.NewLabel(taxonomy.SubGeneric)
		}
		labels = append(labels, label)
	}
	dist := taxonomy.NewDistribution(labels)
	co := taxonomy.NewCoOccurrence(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "Annotated CTH: %d\n", co.Total)
	fmt.Fprintf(&b, "Multi-attack-type: %d (%.1f%%; paper 13%%)\n", co.MultiType, 100*float64(co.MultiType)/float64(max(1, co.Total)))
	for _, k := range []int{2, 3, 4} {
		fmt.Fprintf(&b, "  %d types: %d\n", k, co.BySize[k])
	}
	fmt.Fprintf(&b, "Surveillance also content leakage: %.0f%% (paper 64%%)\n",
		100*co.ConditionalShare(taxonomy.Surveillance, taxonomy.ContentLeakage, dist))
	fmt.Fprintf(&b, "Impersonation also public-opinion manipulation: %.0f%% (paper 30%%)\n",
		100*co.ConditionalShare(taxonomy.Impersonation, taxonomy.PublicOpinion, dist))
	return b.String(), nil
}

// computeRepeatedDoxStats links the complete above-threshold dox sets
// by shared OSN PII (§7.3). Compute body for the repeat-dox artifact;
// use the RepeatedDoxStats accessor (artifacts.go).
func (p *Pipeline) computeRepeatedDoxStats() repeatdox.Stats {
	ex := pii.NewExtractor()
	var records []repeatdox.Record
	var plats []string
	for plat := range p.Dox.Results {
		plats = append(plats, string(plat))
	}
	sort.Strings(plats)
	for _, ps := range plats {
		r := p.Dox.Results[corpus.Platform(ps)]
		for _, d := range r.Above {
			rec := repeatdox.RecordFromText(d.ID, d.Dataset, d.Text, ex)
			if len(rec.Handles) > 0 {
				records = append(records, rec)
			}
		}
	}
	_, st := repeatdox.Link(records)
	return st
}

// RepeatedDoxReport reports §7.3 repeated-dox statistics over the full
// above-threshold dox sets.
func (p *Pipeline) RepeatedDoxReport() (string, error) {
	st := p.RepeatedDoxStats()
	var b strings.Builder
	fmt.Fprintf(&b, "Linkable doxes (with OSN PII): %d\n", st.TotalDoxes)
	fmt.Fprintf(&b, "Repeated doxes: %d (%.1f%%; paper 20.1%%)\n", st.Repeated, 100*st.RepeatedShare)
	fmt.Fprintf(&b, "Same-data-set repeats: %.1f%% (paper 98%%)\n", 100*st.SameDatasetShare)
	var dss []string
	for ds := range st.ByDataset {
		dss = append(dss, string(ds))
	}
	sort.Strings(dss)
	for _, ds := range dss {
		fmt.Fprintf(&b, "  %s: %d\n", ds, st.ByDataset[corpus.Dataset(ds)])
	}
	return b.String(), nil
}

// AgreementReport reports §5.3 annotation agreement per task.
func (p *Pipeline) AgreementReport() (string, error) {
	t := report.NewTable("", "Task", "Kappa", "Band", "Disagreement", "Paper kappa", "Paper disagreement")
	t.AddRow("Doxing", report.F3(p.Dox.CrowdStats.Kappa), p.Dox.CrowdStats.KappaBand,
		report.F(100*p.Dox.CrowdStats.DisagreementRate)+"%", "0.519", "3.94%")
	t.AddRow("CTH", report.F3(p.CTH.CrowdStats.Kappa), p.CTH.CrowdStats.KappaBand,
		report.F(100*p.CTH.CrowdStats.DisagreementRate)+"%", "0.350", "18.66%")
	out := t.String()
	out += "\nSpot-check of delivered crowd labels (sample accuracy / positives reviewed / overturned):\n"
	out += fmt.Sprintf("  doxing: %.2f / %d / %d\n", p.Dox.SpotCheck.SampledAccuracy, p.Dox.SpotCheck.PositivesReviewed, p.Dox.SpotCheck.PositivesOverturned)
	out += fmt.Sprintf("  CTH:    %.2f / %d / %d\n", p.CTH.SpotCheck.SampledAccuracy, p.CTH.SpotCheck.PositivesReviewed, p.CTH.SpotCheck.PositivesOverturned)
	return out, nil
}

// Figure1 prints the pipeline flow counts.
func (p *Pipeline) Figure1() (string, error) {
	var b strings.Builder
	raw := 0
	for _, ds := range []corpus.Dataset{corpus.Boards, corpus.Chat, corpus.Gab, corpus.Pastes} {
		raw += p.Corpora[ds].Len()
	}
	fmt.Fprintf(&b, "1. Raw data sets:              %d documents (boards %d, chat %d, gab %d, pastes %d)\n",
		raw, p.Corpora[corpus.Boards].Len(), p.Corpora[corpus.Chat].Len(), p.Corpora[corpus.Gab].Len(), p.Corpora[corpus.Pastes].Len())
	fmt.Fprintf(&b, "2. Initial annotations:        dox seed %d, CTH seed %d\n", p.Dox.SeedSize, p.CTH.SeedSize)
	fmt.Fprintf(&b, "3. Trained models:             dox span %d, CTH span %d\n", p.Dox.TextLen, p.CTH.TextLen)
	fmt.Fprintf(&b, "4. Annotated training data:    dox %d, CTH %d\n", p.Dox.LabelledSize, p.CTH.LabelledSize)
	doxAbove, cthAbove := 0, 0
	doxAnn, cthAnn := 0, 0
	for _, r := range p.Dox.Results {
		doxAbove += r.AboveThreshold
		doxAnn += r.Annotated
	}
	for _, r := range p.CTH.Results {
		cthAbove += r.AboveThreshold
		cthAnn += r.Annotated
	}
	fmt.Fprintf(&b, "5. Thresholded data:           dox %d, CTH %d above threshold\n", doxAbove, cthAbove)
	fmt.Fprintf(&b, "6. Sampled and annotated:      dox %d, CTH %d\n", doxAnn, cthAnn)
	fmt.Fprintf(&b, "7. True positives:             dox %d, CTH %d (total %d)\n",
		p.Dox.TotalTruePositives(), p.CTH.TotalTruePositives(),
		p.Dox.TotalTruePositives()+p.CTH.TotalTruePositives())
	return b.String(), nil
}

// Table8 runs the blog analysis.
func (p *Pipeline) Table8() (string, error) {
	experts := annotate.NewPool(annotate.ExpertConfig(annotate.TaskDox), p.rng.Split("blog-experts"))
	reports, err := blogs.Analyze(p.Blogs, experts, p.rng.Split("blog-rng"))
	if err != nil {
		return "", err
	}
	t := report.NewTable("", "Blog", "Total posts", "Relevant posts", "Actual doxes (% relevant)", "Keyword-missed doxes")
	for _, r := range reports {
		t.AddRow(r.Blog, fmt.Sprintf("%d", r.TotalPosts), fmt.Sprintf("%d", r.RelevantPosts),
			fmt.Sprintf("%d (%.1f%%)", r.ActualDoxes, 100*r.DoxRate),
			fmt.Sprintf("%d of %d true doxes", r.MissedByKeywords, r.TrueDoxes))
	}
	return t.String(), nil
}

// Table9 renders the blog attack-profile taxonomy, with the generated
// corpus verification shares.
func (p *Pipeline) Table9() (string, error) {
	var b strings.Builder
	for _, profile := range blogs.Table9() {
		fmt.Fprintf(&b, "%s\n", profile.Family)
		for _, section := range profile.Order {
			fmt.Fprintf(&b, "  %s\n", section)
			for _, item := range profile.Sections[section] {
				fmt.Fprintf(&b, "    - %s\n", item)
			}
		}
	}
	b.WriteString("\nGenerated-corpus profile match rates:\n")
	shares := blogs.VerifyProfiles(p.Blogs)
	var names []string
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %s: %.0f%%\n", n, 100*shares[n])
	}
	return b.String(), nil
}
