package threads

import (
	"fmt"
	"math"
	"testing"

	"harassrepro/internal/randx"
	"harassrepro/internal/taxonomy"
)

// buildThread appends a thread of the given size to posts, with CTH at
// cthPositions and doxes at doxPositions.
func buildThread(posts []Post, id string, size int, cthPos map[int]taxonomy.Label, doxPos map[int]bool) []Post {
	for i := 0; i < size; i++ {
		p := Post{ThreadID: id, Pos: i, ThreadSize: size}
		if label, ok := cthPos[i]; ok {
			p.IsCTH = true
			p.Label = label
		}
		if doxPos[i] {
			p.IsDox = true
		}
		posts = append(posts, p)
	}
	return posts
}

func TestPositions(t *testing.T) {
	var posts []Post
	label := taxonomy.NewLabel(taxonomy.SubRaiding)
	posts = buildThread(posts, "t1", 10, map[int]taxonomy.Label{0: label}, nil) // first
	posts = buildThread(posts, "t2", 10, map[int]taxonomy.Label{9: label}, nil) // last
	posts = buildThread(posts, "t3", 10, map[int]taxonomy.Label{4: label}, nil) // interior
	ps := Positions(posts, func(p *Post) bool { return p.IsCTH })
	if ps.N != 3 {
		t.Fatalf("N = %d", ps.N)
	}
	if ps.FirstCount != 1 || ps.LastCount != 1 {
		t.Errorf("first/last = %d/%d", ps.FirstCount, ps.LastCount)
	}
	if !almost(ps.FirstShare, 1.0/3) || !almost(ps.LastShare, 1.0/3) {
		t.Errorf("shares = %v/%v", ps.FirstShare, ps.LastShare)
	}
	// Positions 1-based: 1, 10, 5 -> median 5, mean 16/3.
	if ps.Median != 5 || !almost(ps.Mean, 16.0/3) {
		t.Errorf("median/mean = %v/%v", ps.Median, ps.Mean)
	}
}

func TestPositionsEmpty(t *testing.T) {
	ps := Positions(nil, func(p *Post) bool { return true })
	if ps.N != 0 || ps.FirstShare != 0 {
		t.Errorf("empty summary = %+v", ps)
	}
}

func TestThreadSizes(t *testing.T) {
	var posts []Post
	label := taxonomy.NewLabel(taxonomy.SubRaiding)
	posts = buildThread(posts, "t1", 7, map[int]taxonomy.Label{1: label}, nil)
	posts = buildThread(posts, "t2", 3, nil, map[int]bool{0: true})
	got := ThreadSizes(posts, func(p *Post) bool { return p.IsCTH })
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("CTH thread sizes = %v", got)
	}
}

func TestCompareResponsesDetectsBoost(t *testing.T) {
	rng := randx.New(1)
	var posts []Post
	toxic := taxonomy.NewLabel(taxonomy.SubHateSpeech)
	raid := taxonomy.NewLabel(taxonomy.SubRaiding)
	var baseline []float64
	// Baseline threads: size ~20. Toxic threads: size ~60.
	for i := 0; i < 120; i++ {
		baseSize := 10 + rng.Intn(20)
		baseline = append(baseline, float64(baseSize))
		posts = buildThread(posts, fmt.Sprintf("toxic-%d", i), 40+rng.Intn(50), map[int]taxonomy.Label{1: toxic}, nil)
		posts = buildThread(posts, fmt.Sprintf("raid-%d", i), 10+rng.Intn(20), map[int]taxonomy.Label{1: raid}, nil)
	}
	rows := CompareResponses(posts, baseline, 0.1, 5)
	byAttack := map[taxonomy.Parent]AttackResponse{}
	for _, r := range rows {
		byAttack[r.Attack] = r
	}
	tox := byAttack[taxonomy.ToxicContent]
	if tox.Excluded {
		t.Fatal("toxic content excluded")
	}
	if !tox.Significant || tox.T <= 0 {
		t.Errorf("toxic content not significantly larger: %+v", tox)
	}
	ovr := byAttack[taxonomy.Overloading]
	if ovr.Excluded {
		t.Fatal("overloading excluded")
	}
	if ovr.Significant && ovr.T > 2 {
		t.Errorf("raiding should not show a large positive effect: %+v", ovr)
	}
	// Categories with no samples are excluded (paper excluded Lockout
	// and Surveillance).
	if !byAttack[taxonomy.Lockout].Excluded {
		t.Error("lockout with zero samples should be excluded")
	}
}

func TestCompareResponsesSingleCategoryOnly(t *testing.T) {
	var posts []Post
	multi := taxonomy.NewLabel(taxonomy.SubRaiding, taxonomy.SubMassFlagging)
	posts = buildThread(posts, "m", 30, map[int]taxonomy.Label{1: multi}, nil)
	rows := CompareResponses(posts, []float64{10, 12, 14, 16, 18, 20}, 0.1, 1)
	for _, r := range rows {
		if r.N != 0 {
			t.Errorf("multi-category CTH included in %s analysis", r.Attack)
		}
	}
}

func TestOverlap(t *testing.T) {
	var posts []Post
	label := taxonomy.NewLabel(taxonomy.SubDoxing)
	// Thread A: CTH + dox. Thread B: CTH only. Thread C: dox only.
	posts = buildThread(posts, "A", 10, map[int]taxonomy.Label{2: label}, map[int]bool{5: true})
	posts = buildThread(posts, "B", 10, map[int]taxonomy.Label{3: label}, nil)
	posts = buildThread(posts, "C", 10, nil, map[int]bool{1: true})
	st := Overlap(posts)
	if st.CTHDocs != 2 || st.DoxDocs != 2 {
		t.Fatalf("docs = %d/%d", st.CTHDocs, st.DoxDocs)
	}
	if st.CTHWithDoxInThread != 1 || st.DoxWithCTHInThread != 1 {
		t.Errorf("overlap = %d/%d", st.CTHWithDoxInThread, st.DoxWithCTHInThread)
	}
	if !almost(st.CTHShare, 0.5) || !almost(st.DoxShare, 0.5) {
		t.Errorf("shares = %v/%v", st.CTHShare, st.DoxShare)
	}
	if st.BothInOnePost != 0 {
		t.Errorf("BothInOnePost = %d", st.BothInOnePost)
	}
}

func TestOverlapDualPost(t *testing.T) {
	var posts []Post
	label := taxonomy.NewLabel(taxonomy.SubDoxing)
	posts = buildThread(posts, "D", 5, map[int]taxonomy.Label{2: label}, map[int]bool{2: true})
	st := Overlap(posts)
	if st.BothInOnePost != 1 {
		t.Errorf("BothInOnePost = %d, want 1", st.BothInOnePost)
	}
}

func TestRandomThreadRates(t *testing.T) {
	var posts []Post
	label := taxonomy.NewLabel(taxonomy.SubRaiding)
	posts = buildThread(posts, "1", 5, map[int]taxonomy.Label{0: label}, nil)
	for i := 2; i <= 10; i++ {
		posts = buildThread(posts, fmt.Sprintf("%d", i), 5, nil, nil)
	}
	cthRate, doxRate := RandomThreadRates(posts)
	if !almost(cthRate, 0.1) || doxRate != 0 {
		t.Errorf("rates = %v/%v", cthRate, doxRate)
	}
	c0, d0 := RandomThreadRates(nil)
	if c0 != 0 || d0 != 0 {
		t.Error("empty rates should be 0")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
