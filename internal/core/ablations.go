package core

import (
	"fmt"
	"slices"
	"strings"

	"harassrepro/internal/active"
	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
	"harassrepro/internal/gender"
	"harassrepro/internal/model"
	"harassrepro/internal/pii"
	"harassrepro/internal/randx"
	"harassrepro/internal/repeatdox"
	"harassrepro/internal/report"
	"harassrepro/internal/stats"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/threshold"
	"harassrepro/internal/tokenize"
)

// Ablations validates the design decisions the paper reports making:
// the long-document span strategy (§5.2), combined versus per-data-set
// training (§5.4), the chat threshold split (Table 4), and active
// learning versus random sampling (§5.3). Each returns a rendered
// comparison; all are registered as experiments and benchmarked.

// splitExamples builds expert-labelled train/test splits from a
// platform's documents for a task.
func (p *Pipeline) splitExamples(task annotate.Task, plat corpus.Platform, trainN, testN int, rng *randx.Source) (train, test []struct {
	doc   *corpus.Document
	label bool
}) {
	experts := annotate.NewPool(annotate.ExpertConfig(task), rng.Split("experts"))
	docs := p.docsFor(plat)
	order := shuffledIndices(len(docs), rng.Split("order"))

	// Stratify: positives are scarce; take up to 1/3 positives.
	var pos, neg []*corpus.Document
	for _, i := range order {
		d := docs[i]
		if truth(task, d) {
			pos = append(pos, d)
		} else {
			neg = append(neg, d)
		}
	}
	// Split the scarce positives proportionally between train and test
	// so sparse platforms still have evaluable test sets.
	trainShare := float64(trainN) / float64(trainN+testN)
	posTrain := int(float64(len(pos)) * trainShare)
	take := func(n, posQuota int) []*corpus.Document {
		var out []*corpus.Document
		np := n / 3
		if np > posQuota {
			np = posQuota
		}
		if np > len(pos) {
			np = len(pos)
		}
		out = append(out, pos[:np]...)
		pos = pos[np:]
		nn := n - np
		if nn > len(neg) {
			nn = len(neg)
		}
		out = append(out, neg[:nn]...)
		neg = neg[nn:]
		return out
	}
	trainDocs := take(trainN, posTrain)
	testDocs := take(testN, len(pos))

	label := func(docs []*corpus.Document) []struct {
		doc   *corpus.Document
		label bool
	} {
		items := make([]annotate.Item, len(docs))
		for i, d := range docs {
			items[i] = annotate.Item{ID: d.ID, Truth: truth(task, d)}
		}
		decisions, _, err := experts.Annotate(items)
		out := make([]struct {
			doc   *corpus.Document
			label bool
		}, len(docs))
		for i, d := range docs {
			out[i].doc = d
			if err == nil {
				out[i].label = decisions[i].Label
			} else {
				out[i].label = truth(task, d)
			}
		}
		return out
	}
	return label(trainDocs), label(testDocs)
}

// SpanStrategyAblation reproduces the §5.2 comparison of long-document
// reduction strategies on the doxing task over pastes (the long-form
// data set): random spans without overlap (the paper's choice),
// begin+end spans, overlapping spans, and random-length spans.
func (p *Pipeline) SpanStrategyAblation() (string, error) {
	rng := p.rng.Split("span-ablation")
	train, test := p.splitExamples(annotate.TaskDox, corpus.PlatformPastes, 900, 400, rng)

	// A short span budget makes the reduction strategy matter: pastes
	// run to hundreds of tokens.
	const maxLen = 48
	strategies := []tokenize.SpanStrategy{
		tokenize.SpanRandomNoOverlap, tokenize.SpanBeginEnd,
		tokenize.SpanOverlapping, tokenize.SpanRandomLength,
	}
	t := report.NewTable("", "Strategy", "AUC", "F1 (dox)", "Precision", "Recall")
	type result struct {
		strategy string
		auc      float64
	}
	// Each paste is tokenized once: tokenize.Spans only slices the
	// tokens, never writing or reordering them, so all four strategies
	// reduce the same slices.
	sess := p.Tokenizer.NewSession()
	tokenizeAll := func(items []struct {
		doc   *corpus.Document
		label bool
	}) [][]string {
		out := make([][]string, len(items))
		for i, it := range items {
			out[i] = slices.Clone(sess.Tokenize(it.doc.Text))
		}
		return out
	}
	trainToks, testToks := tokenizeAll(train), tokenizeAll(test)
	var results []result
	for _, strat := range strategies {
		vrng := rng.Split("vec-" + strat.String())
		toExamples := func(items []struct {
			doc   *corpus.Document
			label bool
		}, toks [][]string) []model.Example {
			out := make([]model.Example, len(items))
			for i, it := range items {
				spans := tokenize.Spans(toks[i], maxLen, 2, strat, vrng)
				var merged []string
				for _, s := range spans {
					merged = append(merged, s...)
				}
				out[i] = model.Example{X: p.Hasher.Vectorize(merged), Y: it.label}
			}
			return out
		}
		trainEx := toExamples(train, trainToks)
		testEx := toExamples(test, testToks)
		m, err := model.TrainLogReg(trainEx, model.LogRegConfig{
			Buckets: p.Config.Buckets, Epochs: p.Config.Epochs, Seed: p.Config.Seed ^ 0xab1,
		})
		if err != nil {
			return "", err
		}
		rep := model.Evaluate(m, testEx, 0.5, "Dox", "No Dox")
		t.AddRow(strat.String(), report.F3(rep.AUC), report.F(rep.Positive.F1), report.F(rep.Positive.Precision), report.F(rep.Positive.Recall))
		results = append(results, result{strat.String(), rep.AUC})
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.auc > best.auc {
			best = r
		}
	}
	return t.String() + fmt.Sprintf("Best by AUC: %s (paper chose random-no-overlap)\n", best.strategy), nil
}

// CombinedTrainingAblation reproduces the §5.4 comparison: a CTH
// classifier trained on combined multi-platform data versus classifiers
// trained on each data set individually ("the model had poorer
// performance when training on individual data sets as compared to
// using combined data" — driven by the sparsity of positives).
func (p *Pipeline) CombinedTrainingAblation() (string, error) {
	rng := p.rng.Split("combined-ablation")
	task := annotate.TaskCTH
	plats := taskPlatforms(task)

	type split struct {
		train []model.Example
		test  []model.Example
	}
	splits := map[corpus.Platform]*split{}
	for _, plat := range plats {
		train, test := p.splitExamples(task, plat, 400, 250, rng.Split(string(plat)))
		s := &split{}
		vrng := rng.Split("vec-" + string(plat))
		for _, it := range train {
			s.train = append(s.train, model.Example{X: p.vectorize(it.doc.Text, p.CTH.TextLen, vrng), Y: it.label})
		}
		for _, it := range test {
			s.test = append(s.test, model.Example{X: p.vectorize(it.doc.Text, p.CTH.TextLen, vrng), Y: it.label})
		}
		splits[plat] = s
	}

	// Concatenate in platform order: SGD is order-sensitive, so map
	// iteration here would make the combined model nondeterministic.
	var combined []model.Example
	for _, plat := range plats {
		combined = append(combined, splits[plat].train...)
	}
	cfg := model.LogRegConfig{Buckets: p.Config.Buckets, Epochs: p.Config.Epochs, Seed: p.Config.Seed ^ 0xab2, ClassWeightPositive: 3}
	combinedModel, err := model.TrainLogReg(combined, cfg)
	if err != nil {
		return "", err
	}

	t := report.NewTable("", "Eval platform", "Combined-trained F1", "Individually-trained F1")
	var combBetter, total int
	for _, plat := range plats {
		s := splits[plat]
		indiv, err := model.TrainLogReg(s.train, cfg)
		if err != nil {
			return "", err
		}
		cRep := model.Evaluate(combinedModel, s.test, 0.5, "CTH", "No CTH")
		iRep := model.Evaluate(indiv, s.test, 0.5, "CTH", "No CTH")
		t.AddRow(string(plat), report.F(cRep.Positive.F1), report.F(iRep.Positive.F1))
		total++
		if cRep.Positive.F1 >= iRep.Positive.F1 {
			combBetter++
		}
	}
	return t.String() + fmt.Sprintf("Combined training matches or beats individual on %d/%d platforms (paper: combined better)\n", combBetter, total), nil
}

// ChatSplitAblation reproduces Table 4's ⋄ decision: thresholding the
// chat data set as one unit versus splitting it into Discord and
// Telegram with separate thresholds ("in order to improve performance").
func (p *Pipeline) ChatSplitAblation() (string, error) {
	rng := p.rng.Split("chatsplit-ablation")
	task := annotate.TaskCTH
	run := p.CTH
	experts := annotate.NewPool(annotate.ExpertConfig(task), rng.Split("experts"))

	score := func(plat corpus.Platform) []threshold.ScoredDoc {
		vrng := rng.Split("vec-" + string(plat))
		docs := p.docsFor(plat)
		out := make([]threshold.ScoredDoc, len(docs))
		for i, d := range docs {
			out[i] = threshold.ScoredDoc{ID: d.ID, Score: run.Model.Score(p.vectorize(d.Text, run.TextLen, vrng)), Truth: truth(task, d)}
		}
		return out
	}
	discord := score(corpus.PlatformDiscord)
	telegram := score(corpus.PlatformTelegram)
	unified := append(append([]threshold.ScoredDoc{}, discord...), telegram...)

	cfg := threshold.Config{Ladder: selectionLadder, TargetPrecision: 0.6, SampleSize: 150, Seed: p.Config.Seed ^ 0xab3}
	selU, err := threshold.Select(unified, experts, cfg)
	if err != nil {
		return "", err
	}
	selD, err := threshold.Select(discord, experts, cfg)
	if err != nil {
		return "", err
	}
	selT, err := threshold.Select(telegram, experts, cfg)
	if err != nil {
		return "", err
	}

	// True positives captured above each selection.
	capture := func(docs []threshold.ScoredDoc, t float64) (tp, above int) {
		for _, d := range docs {
			if d.Score > t {
				above++
				if d.Truth {
					tp++
				}
			}
		}
		return tp, above
	}
	tpU, aboveU := capture(unified, selU.Threshold)
	tpD, aboveD := capture(discord, selD.Threshold)
	tpT, aboveT := capture(telegram, selT.Threshold)

	t := report.NewTable("", "Regime", "Threshold(s)", "Above", "True positives", "Precision")
	t.AddRow("Unified chat", report.F3(selU.Threshold), fmt.Sprintf("%d", aboveU), fmt.Sprintf("%d", tpU), report.F(float64(tpU)/float64(max(1, aboveU))))
	t.AddRow("Split (Discord/Telegram)", report.F3(selD.Threshold)+" / "+report.F3(selT.Threshold),
		fmt.Sprintf("%d", aboveD+aboveT), fmt.Sprintf("%d", tpD+tpT),
		report.F(float64(tpD+tpT)/float64(max(1, aboveD+aboveT))))
	return t.String() + "Paper: separate per-platform thresholds improved performance (Table 4's split chat rows)\n", nil
}

// ActiveLearningAblation compares the §5.3 stratified active-learning
// loop against uncertainty sampling and uniform random annotation at the
// same labelling budget.
func (p *Pipeline) ActiveLearningAblation() (string, error) {
	rng := p.rng.Split("al-ablation")
	task := annotate.TaskCTH
	platDocs := map[corpus.Platform][]*corpus.Document{}
	for _, plat := range taskPlatforms(task) {
		platDocs[plat] = p.docsFor(plat)
	}
	pool := p.buildPool(task, platDocs, p.CTH.TextLen, rng.Split("pool"))
	seed, _, err := p.seedAnnotations(task, platDocs, rng.Split("seed"))
	if err != nil {
		return "", err
	}
	seedEx := seed[p.CTH.TextLen]

	auc := func(m *model.LogReg) float64 {
		scores := make([]float64, len(pool))
		truths := make([]bool, len(pool))
		for i := range pool {
			scores[i] = m.Score(pool[i].X)
			truths[i] = pool[i].Truth
		}
		return model.AUCROC(scores, truths)
	}

	t := report.NewTable("", "Sampling", "Annotations", "Positives found", "Final AUC")
	for _, strat := range []active.Strategy{active.StrategyStratified, active.StrategyUncertainty, active.StrategyRandom} {
		crowd := annotate.NewPool(annotate.CrowdConfig(task), rng.Split("crowd-"+strat.String()))
		res, err := active.Run(seedEx, pool, crowd, active.Config{
			Strategy: strat,
			PerBin:   p.Config.ActivePerBin, Iterations: 2,
			Model: model.LogRegConfig{Buckets: p.Config.Buckets, Epochs: p.Config.Epochs, Seed: p.Config.Seed ^ 0xab4, ClassWeightPositive: 3},
			Seed:  p.Config.Seed ^ 0xab5,
		})
		if err != nil {
			return "", err
		}
		pos := 0
		for _, ex := range res.Labelled[len(seedEx):] {
			if ex.Y {
				pos++
			}
		}
		t.AddRow(strat.String(), fmt.Sprintf("%d", len(res.Labelled)-len(seedEx)),
			fmt.Sprintf("%d", pos), report.F3(auc(res.Model)))
	}
	return t.String() + "Stratified sampling (the paper's §5.3 loop) surfaces more positives per annotation than random; uncertainty sampling concentrates near the boundary.\n", nil
}

// BaselineClassifierAblation compares the main logistic-regression filter
// with the multinomial naive Bayes baseline on both tasks.
func (p *Pipeline) BaselineClassifierAblation() (string, error) {
	rng := p.rng.Split("nb-ablation")
	t := report.NewTable("", "Task", "Classifier", "AUC", "F1 (positive)")
	for _, task := range []annotate.Task{annotate.TaskDox, annotate.TaskCTH} {
		run := p.Dox
		srcPlat := corpus.PlatformPastes
		if task == annotate.TaskCTH {
			run = p.CTH
			srcPlat = corpus.PlatformBoards
		}
		train, test := p.splitExamples(task, srcPlat, 800, 400, rng.Split(string(task)))
		vrng := rng.Split("vec-" + string(task))
		toEx := func(items []struct {
			doc   *corpus.Document
			label bool
		}) []model.Example {
			out := make([]model.Example, len(items))
			for i, it := range items {
				out[i] = model.Example{X: p.vectorize(it.doc.Text, run.TextLen, vrng), Y: it.label}
			}
			return out
		}
		trainEx, testEx := toEx(train), toEx(test)
		lr, err := model.TrainLogReg(trainEx, model.LogRegConfig{Buckets: p.Config.Buckets, Epochs: p.Config.Epochs, Seed: p.Config.Seed ^ 0xab6})
		if err != nil {
			return "", err
		}
		nb, err := model.TrainNaiveBayes(trainEx, p.Config.Buckets)
		if err != nil {
			return "", err
		}
		lrRep := model.Evaluate(lr, testEx, 0.5, "pos", "neg")
		nbRep := model.Evaluate(nb, testEx, 0.5, "pos", "neg")
		t.AddRow(string(task), "logistic regression", report.F3(lrRep.AUC), report.F(lrRep.Positive.F1))
		t.AddRow(string(task), "naive Bayes", report.F3(nbRep.AUC), report.F(nbRep.Positive.F1))
	}
	return t.String(), nil
}

// CrawlCompletenessAblation probes the §4 caveat that the paste crawls
// "are assumed to be incomplete" (old pastes are only reachable by
// random ID): the §7.3 repeated-dox measurement is recomputed under
// simulated crawl coverage levels, quantifying how much of the
// repeated-dox structure an incomplete crawl destroys (both halves of a
// repeat pair must be crawled for the pair to be linkable).
func (p *Pipeline) CrawlCompletenessAblation() (string, error) {
	ex := pii.NewExtractor()
	full := p.Dox.Results[corpus.PlatformPastes]
	if full == nil || len(full.Above) == 0 {
		return "", fmt.Errorf("no pastes dox results")
	}
	// Each dox's record is built once; every coverage level draws its
	// own crawl sample over them (Link only reads records).
	all := make([]repeatdox.Record, len(full.Above))
	for i, d := range full.Above {
		all[i] = repeatdox.RecordFromText(d.ID, d.Dataset, d.Text, ex)
	}
	t := report.NewTable("", "Crawl coverage", "Doxes crawled", "Linkable", "Repeated", "Repeated share")
	for _, coverage := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
		rng := p.rng.Split(fmt.Sprintf("crawl-%.1f", coverage))
		var records []repeatdox.Record
		crawled := 0
		for _, rec := range all {
			if !rng.Bool(coverage) {
				continue
			}
			crawled++
			if len(rec.Handles) > 0 {
				records = append(records, rec)
			}
		}
		_, st := repeatdox.Link(records)
		t.AddRow(fmt.Sprintf("%.0f%%", 100*coverage), fmt.Sprintf("%d", crawled),
			fmt.Sprintf("%d", st.TotalDoxes), fmt.Sprintf("%d", st.Repeated),
			report.F(100*st.RepeatedShare)+"%")
	}
	return t.String() + "Repeat pairs need both posts crawled: measured repeat share falls roughly linearly with coverage, so the paper's 20.1% is a lower bound on the true rate.\n", nil
}

// ScoreDistributionReport renders the classifier score histograms over a
// platform's full corpus — the distribution the 10-bin active-learning
// strata and the §5.5 threshold ladder operate on.
func (p *Pipeline) ScoreDistributionReport() (string, error) {
	rng := p.rng.Split("scoredist")
	var b strings.Builder
	for _, spec := range []struct {
		task annotate.Task
		run  *TaskRun
		plat corpus.Platform
	}{
		{annotate.TaskDox, p.Dox, corpus.PlatformPastes},
		{annotate.TaskCTH, p.CTH, corpus.PlatformBoards},
	} {
		docs := p.docsFor(spec.plat)
		// Sample for speed at large scales.
		order := shuffledIndices(len(docs), rng.Split("s-"+string(spec.task)))
		if len(order) > 4000 {
			order = order[:4000]
		}
		var posScores, negScores []float64
		vrng := rng.Split("vec-" + string(spec.task))
		for _, i := range order {
			d := docs[i]
			s := spec.run.Model.Score(p.vectorize(d.Text, spec.run.TextLen, vrng))
			if truth(spec.task, d) {
				posScores = append(posScores, s)
			} else {
				negScores = append(negScores, s)
			}
		}
		fmt.Fprintf(&b, "%s scores on %s (sample of %d):\n", spec.task, spec.plat, len(order))
		b.WriteString(report.RenderHistogram("  true positives", posScores, 10, 40))
		b.WriteString(report.RenderHistogram("  true negatives", negScores, 10, 40))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// CalibrationExperiment measures how well calibrated both filtering
// classifiers' probabilities are. The §5.5 threshold-selection procedure
// treats scores as probabilities; this report (reliability bins, ECE,
// Brier score) quantifies the assumption.
func (p *Pipeline) CalibrationExperiment() (string, error) {
	rng := p.rng.Split("calibration")
	t := report.NewTable("", "Task", "ECE", "Brier", "Predictions in top bin", "Top-bin positive rate")
	for _, task := range []annotate.Task{annotate.TaskDox, annotate.TaskCTH} {
		run := p.Dox
		srcPlat := corpus.PlatformPastes
		if task == annotate.TaskCTH {
			run = p.CTH
			srcPlat = corpus.PlatformBoards
		}
		_, test := p.splitExamples(task, srcPlat, 200, 600, rng.Split(string(task)))
		vrng := rng.Split("vec-" + string(task))
		examples := make([]model.Example, len(test))
		for i, it := range test {
			examples[i] = model.Example{X: p.vectorize(it.doc.Text, run.TextLen, vrng), Y: it.label}
		}
		rep := model.Calibrate(run.Model, examples, 10)
		top := rep.Bins[len(rep.Bins)-1]
		t.AddRow(string(task), report.F3(rep.ECE), report.F3(rep.Brier),
			fmt.Sprintf("%d", top.Count), report.F(top.FractionPositive))
	}
	return t.String() + "Scores feed the §5.5 threshold search, which assumes probability-like behaviour.\n", nil
}

// PIICoOccurrenceReport reproduces the §7.1 analysis of which PII types
// co-occur within doxes ("street addresses, phone numbers and email
// addresses co-occurred with all other types of PII more than 35% of the
// time"; Facebook predicts richer contact PII than other OSN profiles).
func (p *Pipeline) PIICoOccurrenceReport() (string, error) {
	ex := pii.NewExtractor()
	var perDox []map[pii.Type]bool
	for _, d := range p.Dox.AllPositives() {
		set := map[pii.Type]bool{}
		for _, ty := range ex.Types(d.Text) {
			set[ty] = true
		}
		if len(set) > 0 {
			perDox = append(perDox, set)
		}
	}
	counts := map[pii.Type]int{}
	joint := map[[2]pii.Type]int{}
	for _, set := range perDox {
		for a := range set {
			counts[a]++
			for b := range set {
				if a != b {
					joint[[2]pii.Type{a, b}]++
				}
			}
		}
	}
	cond := func(a, b pii.Type) float64 {
		if counts[a] == 0 {
			return 0
		}
		return float64(joint[[2]pii.Type{a, b}]) / float64(counts[a])
	}
	t := report.NewTable("P(col | row) over annotated doxes", append([]string{"PII"}, typeNames()...)...)
	for _, a := range pii.AllTypes() {
		row := []string{string(a)}
		for _, b := range pii.AllTypes() {
			if a == b {
				row = append(row, "-")
			} else {
				row = append(row, report.F(cond(a, b)))
			}
		}
		t.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nFacebook -> email %.0f%%, phone %.0f%%, address %.0f%% (paper: 39%%, 25%%, 24%%)\n",
		100*cond(pii.Facebook, pii.Email), 100*cond(pii.Facebook, pii.Phone), 100*cond(pii.Facebook, pii.Address))
	fmt.Fprintf(&b, "YouTube -> email %.0f%%; Twitter -> email %.0f%% (paper: <15%% and <20%%)\n",
		100*cond(pii.YouTube, pii.Email), 100*cond(pii.Twitter, pii.Email))
	return b.String(), nil
}

func typeNames() []string {
	var out []string
	for _, t := range pii.AllTypes() {
		out = append(out, string(t))
	}
	return out
}

// ChiSquareReport reproduces the §6.2 significance testing: one-way
// chi-square tests comparing the reporting-subcategory distributions
// across data sets, corrected with Benjamini-Hochberg ("nearly all
// differences were statistically significant (p < 0.01)"; the only
// non-significant comparison was misc. reporting between Chat and
// Boards).
func (p *Pipeline) ChiSquareReport() (string, error) {
	coded := p.codedCTH()
	cols := []string{"Boards", "Chat", "Gab"}
	dists := map[string]taxonomy.Distribution{}
	for _, c := range cols {
		dists[c] = taxonomy.NewDistribution(coded[c])
	}
	subs := []taxonomy.Sub{taxonomy.SubFalseReporting, taxonomy.SubMassFlagging, taxonomy.SubReportingMisc}

	type row struct {
		sub   taxonomy.Sub
		pair  string
		chi   float64
		p     float64
		valid bool
	}
	var rows []row
	var pvals []float64
	pairs := [][2]string{{"Boards", "Chat"}, {"Boards", "Gab"}, {"Chat", "Gab"}}
	for _, sub := range subs {
		for _, pair := range pairs {
			a, b := dists[pair[0]], dists[pair[1]]
			// Observed counts scaled to shares of each data set's total,
			// tested for equal proportions via a 2x2 contingency table:
			// [has sub, lacks sub] x [data set].
			table := [][]float64{
				{float64(a.SubHits[sub]), float64(a.Total - a.SubHits[sub])},
				{float64(b.SubHits[sub]), float64(b.Total - b.SubHits[sub])},
			}
			res, err := stats.ChiSquareIndependence(table)
			r := row{sub: sub, pair: pair[0] + " vs " + pair[1]}
			if err == nil {
				r.chi, r.p, r.valid = res.Statistic, res.P, true
				pvals = append(pvals, res.P)
			}
			rows = append(rows, r)
		}
	}
	bh := stats.BenjaminiHochberg(pvals, 0.1)
	t := report.NewTable("", "Reporting subcategory", "Comparison", "chi2", "raw p", "significant (BH)")
	bi := 0
	for _, r := range rows {
		if !r.valid {
			t.AddRow(string(r.sub), r.pair, "-", "-", "-")
			continue
		}
		t.AddRow(string(r.sub), r.pair, report.F(r.chi), report.F3(r.p), fmt.Sprintf("%v", bh[bi].Rejected))
		bi++
	}
	return t.String() + "Paper: nearly all comparisons significant at p < 0.01; misc. reporting Boards-vs-Chat was not.\n", nil
}

// GenderResponseReport reproduces §6.3's gender comparison: response
// sizes to calls to harassment compared across inferred target genders
// and against the baseline; the paper found no statistically significant
// difference.
func (p *Pipeline) GenderResponseReport() (string, error) {
	posts := p.boardPosts()
	base := p.baselineSizes(posts)

	// Attach inferred gender to board CTH posts.
	genderOf := map[string]gender.Gender{}
	for _, d := range p.CTH.Results[corpus.PlatformBoards].Positives {
		genderOf[d.ThreadID+fmt.Sprint(d.PosInThread)] = gender.Infer(d.Text)
	}
	sizesByGender := map[gender.Gender][]float64{}
	for i := range posts {
		q := &posts[i]
		if !q.IsCTH {
			continue
		}
		g, ok := genderOf[q.ThreadID+fmt.Sprint(q.Pos)]
		if !ok {
			continue
		}
		sizesByGender[g] = append(sizesByGender[g], float64(q.ThreadSize))
	}

	t := report.NewTable("", "Comparison", "N1", "N2", "t", "p", "significant at 0.01")
	addTest := func(name string, a, b []float64) {
		res, err := stats.WelchTTest(stats.Log(a), stats.Log(b))
		if err != nil {
			t.AddRow(name, fmt.Sprintf("%d", len(a)), fmt.Sprintf("%d", len(b)), "-", "-", "insufficient")
			return
		}
		t.AddRow(name, fmt.Sprintf("%d", len(a)), fmt.Sprintf("%d", len(b)),
			report.F3(res.T), report.F3(res.P), fmt.Sprintf("%v", res.P < 0.01))
	}
	addTest("male vs female", sizesByGender[gender.Male], sizesByGender[gender.Female])
	addTest("male vs baseline", sizesByGender[gender.Male], base)
	addTest("female vs baseline", sizesByGender[gender.Female], base)
	addTest("unknown vs baseline", sizesByGender[gender.Unknown], base)
	return t.String() + "Paper: no statistically significant difference between genders or against the baseline.\n", nil
}
