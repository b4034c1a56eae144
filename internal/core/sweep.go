package core

import (
	"fmt"

	"harassrepro/internal/report"
	"harassrepro/internal/stats"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/threads"
)

// SweepMetrics are one pipeline run's headline numbers, extracted for
// cross-seed variance reporting. The paper observed a single dataset;
// the reproduction can quantify how stable each finding is under
// resampling.
type SweepMetrics struct {
	Seed uint64

	DoxF1  float64
	CTHF1  float64
	DoxAUC float64
	CTHAUC float64

	// ReportingShare is the share of annotated CTH including a
	// reporting attack (the paper's >50% headline).
	ReportingShare float64
	// OverlapShare is the §6.3 CTH-in-dox-thread share (~8.5%).
	OverlapShare float64
	// RepeatedShare is the §7.3 repeated-dox share (~20%).
	RepeatedShare float64
	// DoxKappa / CTHKappa are the crowd agreement statistics.
	DoxKappa float64
	CTHKappa float64
	// ToxicSignificant reports whether toxic content was the response
	// t-test's significant category (§6.3).
	ToxicSignificant bool
	// OtherSignificant counts other attack types flagged significant
	// (the paper found none).
	OtherSignificant int
}

// CollectMetrics extracts SweepMetrics from a completed pipeline.
func (p *Pipeline) CollectMetrics() SweepMetrics {
	m := SweepMetrics{
		Seed:     p.Config.Seed,
		DoxF1:    p.Dox.Eval.Positive.F1,
		CTHF1:    p.CTH.Eval.Positive.F1,
		DoxAUC:   p.Dox.Eval.AUC,
		CTHAUC:   p.CTH.Eval.AUC,
		DoxKappa: p.Dox.CrowdStats.Kappa,
		CTHKappa: p.CTH.CrowdStats.Kappa,
	}

	cat := taxonomy.Shared()
	var labels []taxonomy.Label
	for _, d := range p.CTH.AllPositives() {
		l := cat.Categorize(d.Text)
		if l.Empty() {
			l = taxonomy.NewLabel(taxonomy.SubGeneric)
		}
		labels = append(labels, l)
	}
	dist := taxonomy.NewDistribution(labels)
	m.ReportingShare = dist.ParentShare(taxonomy.Reporting)

	ov := threads.Overlap(p.aboveThresholdBoardPosts())
	m.OverlapShare = ov.CTHShare

	m.RepeatedShare = p.RepeatedDoxStats().RepeatedShare

	posts := p.boardPosts()
	base := p.baselineSizes(posts)
	var cthPosts []threads.Post
	for _, q := range posts {
		if q.IsCTH {
			cthPosts = append(cthPosts, q)
		}
	}
	for _, r := range threads.CompareResponses(cthPosts, base, 0.1, 5) {
		if r.Excluded || !r.Significant {
			continue
		}
		if r.Attack == taxonomy.ToxicContent && r.T > 0 {
			m.ToxicSignificant = true
		} else {
			m.OtherSignificant++
		}
	}
	return m
}

// RenderSweep formats per-seed metrics with mean and standard deviation
// rows, plus the paper's reference values.
func RenderSweep(ms []SweepMetrics) string {
	t := report.NewTable("", "Seed", "Dox F1", "CTH F1", "Reporting %", "Overlap %", "Repeats %", "Dox κ", "CTH κ", "Toxic sig", "Other sig")
	var f1d, f1c, rep, ovl, rpt, kd, kc []float64
	toxicCount := 0
	for _, m := range ms {
		t.AddRow(fmt.Sprintf("%d", m.Seed), report.F(m.DoxF1), report.F(m.CTHF1),
			report.F(100*m.ReportingShare), report.F(100*m.OverlapShare), report.F(100*m.RepeatedShare),
			report.F3(m.DoxKappa), report.F3(m.CTHKappa),
			fmt.Sprintf("%v", m.ToxicSignificant), fmt.Sprintf("%d", m.OtherSignificant))
		f1d = append(f1d, m.DoxF1)
		f1c = append(f1c, m.CTHF1)
		rep = append(rep, 100*m.ReportingShare)
		ovl = append(ovl, 100*m.OverlapShare)
		rpt = append(rpt, 100*m.RepeatedShare)
		kd = append(kd, m.DoxKappa)
		kc = append(kc, m.CTHKappa)
		if m.ToxicSignificant {
			toxicCount++
		}
	}
	t.AddRow("mean", report.F(stats.Mean(f1d)), report.F(stats.Mean(f1c)),
		report.F(stats.Mean(rep)), report.F(stats.Mean(ovl)), report.F(stats.Mean(rpt)),
		report.F3(stats.Mean(kd)), report.F3(stats.Mean(kc)),
		fmt.Sprintf("%d/%d", toxicCount, len(ms)), "")
	t.AddRow("sd", report.F(stats.StdDev(f1d)), report.F(stats.StdDev(f1c)),
		report.F(stats.StdDev(rep)), report.F(stats.StdDev(ovl)), report.F(stats.StdDev(rpt)),
		report.F3(stats.StdDev(kd)), report.F3(stats.StdDev(kc)), "", "")
	t.AddRow("paper", "0.76", "0.63", "51", "8.53", "20.1", "0.519", "0.350", "yes", "0")
	return t.String()
}
