// Package threads implements the paper's board-thread analyses: where in
// a thread calls to harassment and doxes originate (§6.3, §7.4), which
// attack types draw significantly larger responses (pairwise t-tests on
// log thread sizes with Benjamini–Hochberg correction), the thread-size
// CDFs of Figures 5 and 6, and the co-occurrence of calls to harassment
// and doxes within threads.
package threads

import (
	"sort"

	"harassrepro/internal/stats"
	"harassrepro/internal/taxonomy"
)

// Post is one board post with its thread coordinates and labels.
type Post struct {
	ThreadID   string
	Pos        int // 0-based position within the thread
	ThreadSize int
	IsCTH      bool
	IsDox      bool
	Label      taxonomy.Label // taxonomy coding when IsCTH
}

// PositionSummary reports where in threads a class of posts appears.
type PositionSummary struct {
	N          int
	FirstCount int
	LastCount  int
	FirstShare float64
	LastShare  float64
	// Median/Mean/StdDev are over 1-based positions, matching the
	// paper's "median, mean and standard deviation for thread position
	// was 70th, 145th and 263 places".
	Median float64
	Mean   float64
	StdDev float64
}

// Positions summarises thread positions of the posts selected by sel.
func Positions(posts []Post, sel func(*Post) bool) PositionSummary {
	var ps PositionSummary
	var positions []float64
	for i := range posts {
		p := &posts[i]
		if !sel(p) {
			continue
		}
		ps.N++
		if p.Pos == 0 {
			ps.FirstCount++
		}
		if p.Pos == p.ThreadSize-1 {
			ps.LastCount++
		}
		positions = append(positions, float64(p.Pos+1))
	}
	if ps.N > 0 {
		ps.FirstShare = float64(ps.FirstCount) / float64(ps.N)
		ps.LastShare = float64(ps.LastCount) / float64(ps.N)
		s := stats.Summarize(positions)
		ps.Median, ps.Mean, ps.StdDev = s.Median, s.Mean, s.StdDev
	}
	return ps
}

// ThreadSizes returns the distinct thread sizes of the posts selected by
// sel (one entry per selected post, matching the paper's per-post CDF of
// Figure 5).
func ThreadSizes(posts []Post, sel func(*Post) bool) []float64 {
	var out []float64
	for i := range posts {
		p := &posts[i]
		if sel(p) {
			out = append(out, float64(p.ThreadSize))
		}
	}
	return out
}

// AttackResponse is one attack type's response-size comparison against
// the baseline (one row of the §6.3 analysis / one box of Figure 6).
type AttackResponse struct {
	Attack taxonomy.Parent
	N      int
	// Sizes are the thread sizes of single-category CTH of this type.
	Sizes []float64
	// T and RawP are the Welch t statistic and two-sided p-value of the
	// log-size comparison against the baseline.
	T    float64
	RawP float64
	// AdjustedP and Significant apply Benjamini–Hochberg at the error
	// rate passed to CompareResponses.
	AdjustedP   float64
	Significant bool
	// Excluded marks categories skipped for insufficient samples (the
	// paper excluded Lockout and Surveillance with 2 examples each).
	Excluded bool
}

// CompareResponses runs the §6.3 analysis: for each parent attack type,
// the thread sizes of CTH labelled with exactly that single category are
// t-tested (on logs) against the baseline thread sizes, with BH
// correction at rate q (the paper used q = 0.1). Categories with fewer
// than minSamples single-category posts are excluded.
func CompareResponses(cthPosts []Post, baselineSizes []float64, q float64, minSamples int) []AttackResponse {
	if minSamples <= 0 {
		minSamples = 5
	}
	if q <= 0 {
		q = 0.1
	}
	baseLog := stats.Log(baselineSizes)

	var rows []AttackResponse
	for _, parent := range taxonomy.Parents() {
		row := AttackResponse{Attack: parent}
		// Only single-category CTH ensure independence of samples.
		for i := range cthPosts {
			p := &cthPosts[i]
			if !p.IsCTH || p.Label.ParentCount() != 1 || !p.Label.HasParent(parent) {
				continue
			}
			row.Sizes = append(row.Sizes, float64(p.ThreadSize))
		}
		row.N = len(row.Sizes)
		if row.N < minSamples {
			row.Excluded = true
			rows = append(rows, row)
			continue
		}
		res, err := stats.WelchTTest(stats.Log(row.Sizes), baseLog)
		if err != nil {
			row.Excluded = true
			rows = append(rows, row)
			continue
		}
		row.T = res.T
		row.RawP = res.P
		rows = append(rows, row)
	}

	// BH over the included rows.
	var pvals []float64
	var idx []int
	for i, r := range rows {
		if !r.Excluded {
			pvals = append(pvals, r.RawP)
			idx = append(idx, i)
		}
	}
	if len(pvals) > 0 {
		for j, res := range stats.BenjaminiHochberg(pvals, q) {
			rows[idx[j]].AdjustedP = res.Adjusted
			rows[idx[j]].Significant = res.Rejected
		}
	}
	return rows
}

// OverlapStats reports CTH/dox co-membership in threads (§6.3).
type OverlapStats struct {
	CTHDocs int
	DoxDocs int
	// CTHWithDoxInThread counts CTH posts whose thread also contains a
	// dox (2,620 of 30,685 = 8.53% in the paper).
	CTHWithDoxInThread int
	// DoxWithCTHInThread counts dox posts whose thread also contains a
	// CTH (17.85% in the paper).
	DoxWithCTHInThread int
	// BothInOnePost counts posts that are simultaneously a dox and a
	// CTH (95 posts in the paper).
	BothInOnePost int

	CTHShare float64
	DoxShare float64
}

// Overlap computes CTH/dox thread co-occurrence over board posts. As in
// the paper, a CTH document "contains a dox" when its thread holds a dox
// document (a dual dox+CTH post counts for its own thread).
func Overlap(posts []Post) OverlapStats {
	threadDox := map[string]int{}
	threadCTH := map[string]int{}
	for i := range posts {
		p := &posts[i]
		if p.IsCTH {
			threadCTH[p.ThreadID]++
		}
		if p.IsDox {
			threadDox[p.ThreadID]++
		}
	}
	var st OverlapStats
	for i := range posts {
		p := &posts[i]
		if p.IsCTH {
			st.CTHDocs++
			if threadDox[p.ThreadID] > 0 {
				st.CTHWithDoxInThread++
			}
		}
		if p.IsDox {
			st.DoxDocs++
			if threadCTH[p.ThreadID] > 0 {
				st.DoxWithCTHInThread++
			}
		}
		if p.IsCTH && p.IsDox {
			st.BothInOnePost++
		}
	}
	if st.CTHDocs > 0 {
		st.CTHShare = float64(st.CTHWithDoxInThread) / float64(st.CTHDocs)
	}
	if st.DoxDocs > 0 {
		st.DoxShare = float64(st.DoxWithCTHInThread) / float64(st.DoxDocs)
	}
	return st
}

// RandomThreadRates estimates the probability that a random thread
// contains a CTH (and a dox), the baseline the paper compares overlap
// against ("0.20% and 0.10% respectively").
func RandomThreadRates(posts []Post) (cthRate, doxRate float64) {
	threads := map[string][2]bool{}
	for i := range posts {
		p := &posts[i]
		cur := threads[p.ThreadID]
		if p.IsCTH {
			cur[0] = true
		}
		if p.IsDox {
			cur[1] = true
		}
		threads[p.ThreadID] = cur
	}
	if len(threads) == 0 {
		return 0, 0
	}
	var cth, dox int
	// Deterministic iteration for stable floats.
	ids := make([]string, 0, len(threads))
	for id := range threads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if threads[id][0] {
			cth++
		}
		if threads[id][1] {
			dox++
		}
	}
	n := float64(len(threads))
	return float64(cth) / n, float64(dox) / n
}
