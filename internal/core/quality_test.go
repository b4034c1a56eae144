package core

// Classifier quality pinned per (task, platform) at the §5.5 selected
// thresholds (paper Tables 3–4). The experiment goldens render only
// what the paper prints; this table adds precision, recall and F1
// against the planted ground truth, and the share of hard negatives
// (benign text shaped like mobilizing language) scored above threshold,
// the figure a subtly wrong tokenizer or featurizer change moves first.
// TestGoldenExperimentOutputs owns the fixtures (quality.txt per seed)
// and TestGoldenStoreStreamedOutputs checks the store-backed runs
// against them; a change that moves scores on purpose regenerates them
// with -update and shows the new table in its diff.

import (
	"fmt"
	"strings"
)

// qualityTable renders one row per (task, platform) of p's Table 4 runs.
func qualityTable(p *Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-9s %9s %6s %9s %6s %6s %s\n",
		"task", "platform", "threshold", "above", "precision", "recall", "f1", "hard-negatives above")
	for _, run := range []*TaskRun{p.CTH, p.Dox} {
		for _, plat := range taskPlatforms(run.Task) {
			r := run.Results[plat]
			positives, hardNeg := 0, 0
			for _, d := range p.docsFor(plat) {
				if truth(run.Task, d) {
					positives++
				}
				if d.Truth.HardNegative {
					hardNeg++
				}
			}
			tp, hardNegAbove := 0, 0
			for _, d := range r.Above {
				if truth(run.Task, d) {
					tp++
				}
				if d.Truth.HardNegative {
					hardNegAbove++
				}
			}
			precision, recall := ratio(tp, len(r.Above)), ratio(tp, positives)
			f1 := 0.0
			if precision+recall > 0 {
				f1 = 2 * precision * recall / (precision + recall)
			}
			fmt.Fprintf(&b, "%-18s %-9s %9.4f %6d %9.4f %6.4f %6.4f %d/%d (%.4f)\n",
				run.Task, plat, r.Threshold, len(r.Above), precision, recall, f1,
				hardNegAbove, hardNeg, ratio(hardNegAbove, hardNeg))
		}
	}
	return b.String()
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
