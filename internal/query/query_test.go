package query

import (
	"strings"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/randx"
	"harassrepro/internal/synth"
	"harassrepro/internal/taxonomy"
)

func TestClauseMatch(t *testing.T) {
	c := Clause{"we should", "lets"}
	if !c.match("i think we should go") {
		t.Error("clause should match")
	}
	if c.match("nothing here") {
		t.Error("clause should not match")
	}
	if (Clause{}).match("anything") {
		t.Error("empty clause matches nothing")
	}
}

func TestQueryConjunction(t *testing.T) {
	q := New(Clause{"alpha"}, Clause{"beta"})
	if !q.Match("alpha and beta") {
		t.Error("both clauses present should match")
	}
	if q.Match("alpha only") || q.Match("beta only") {
		t.Error("single clause should not match")
	}
	if (Query{}).Match("anything") {
		t.Error("empty query matches nothing")
	}
}

func TestQueryCaseInsensitive(t *testing.T) {
	q := New(Clause{"We Should"})
	if !q.Match("WE SHOULD ALL GO") {
		t.Error("matching must be case-insensitive")
	}
}

func TestFigure4MatchesPaperExample(t *testing.T) {
	q := Figure4()
	positives := []string{
		"I think we should report him to the platform",
		"ok so we need to find them all",
		"soon we will get her address",
	}
	for _, p := range positives {
		if !q.Match(p) {
			t.Errorf("Figure4 should match %q", p)
		}
	}
	negatives := []string{
		"the weather is nice today",
		"report generated successfully", // no mobilizing clause, no pronoun
	}
	for _, n := range negatives {
		if q.Match(n) {
			t.Errorf("Figure4 should not match %q", n)
		}
	}
}

func TestFigure4RecallOnGeneratedCTH(t *testing.T) {
	// The seed query must recall a substantial share of generated calls
	// to harassment — that is its role in the pipeline (it seeds the
	// first annotation round; the paper ran it over the board data).
	// Neutral-pronoun incitements ("them/their") hit the query's
	// subclause; male-possessive-only texts ("his") are an authentic
	// blind spot of the verbatim Figure 4 clauses.
	rng := randx.New(3)
	hits, total := 0, 300
	for i := 0; i < total; i++ {
		p := synth.NewPersona(rng.SplitN("p", i))
		text := synth.CTH(p, []taxonomy.Sub{taxonomy.SubReportingMisc}, synth.NeutralPronouns, rng)
		if Figure4().Match(text) {
			hits++
		}
	}
	if hits < total*3/4 {
		t.Errorf("Figure4 recalled %d/%d neutral-pronoun CTH", hits, total)
	}
}

func TestFigure4PrecisionIsImperfect(t *testing.T) {
	// The query is recall-oriented: benign mobilizing chatter also
	// matches (that is why the pool then gets annotated). Confirm it is
	// not a classifier: some benign texts match.
	q := Figure4()
	if !q.Match("we should all get lunch, tell them to meet at noon") {
		t.Error("benign mobilizing text should match the recall-oriented query")
	}
}

func TestWithAttackTerms(t *testing.T) {
	q := WithAttackTerms(Figure4())
	if !q.Match("we should mass report him today") {
		t.Error("attack-term query should match reporting CTH")
	}
	if q.Match("we should all get lunch, tell them to meet at noon") {
		t.Error("attack-term clause should filter benign mobilizing chatter")
	}
	custom := WithAttackTerms(Figure4(), "zoombomb")
	if !custom.Match("ok we will zoombomb her lecture") {
		t.Error("custom attack term should match")
	}
	if custom.Match("we should report him") {
		t.Error("custom term query should not match other attacks")
	}
}

func TestQueryOverGeneratedCorpus(t *testing.T) {
	g := corpus.NewGenerator(corpus.Config{Seed: 5, VolumeScale: 100_000, PositiveScale: 50})
	boards := g.Generate()[corpus.Boards]
	q := Figure4()
	narrow := WithAttackTerms(Figure4())
	var matchedCTH, totalCTH, matchedBenign, totalBenign, narrowBenign int
	for i := range boards.Docs {
		d := &boards.Docs[i]
		m := q.Match(d.Text)
		if d.Truth.IsCTH {
			totalCTH++
			if m {
				matchedCTH++
			}
		} else {
			totalBenign++
			if m {
				matchedBenign++
			}
			if narrow.Match(d.Text) {
				narrowBenign++
			}
		}
	}
	if totalCTH == 0 {
		t.Fatal("no CTH generated")
	}
	// The seed query is recall-oriented but imperfect (it misses, e.g.,
	// male-possessive-only texts, as the verbatim Figure 4 clauses do).
	if matchedCTH*3 < totalCTH {
		t.Errorf("query recall too low: %d/%d", matchedCTH, totalCTH)
	}
	if matchedBenign*2 > totalBenign {
		t.Errorf("query matched too much benign text: %d/%d", matchedBenign, totalBenign)
	}
	// The attack-term variant still matches some benign mobilizing
	// chatter: the seed pool needs negative examples to annotate (the
	// paper's pool was 947 positive / 424 negative).
	if narrowBenign == 0 {
		t.Error("attack-term query matched no benign text; seed pool would have no negatives")
	}
}

func BenchmarkFigure4(b *testing.B) {
	q := WithAttackTerms(Figure4())
	body := "this one has been asking for it. we need to mass-report his twitter and youtube. spread the word"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Match(body)
	}
}

// oracleMatch is Query.Match as it was before phrases were lowered at
// construction: pad the lowercased body with a leading space, re-lower
// every phrase, substring-match. Kept as the differential oracle.
func oracleMatch(clauses []Clause, body string) bool {
	lower := " " + strings.ToLower(body)
	for _, c := range clauses {
		matched := false
		for _, phrase := range c {
			if strings.Contains(lower, strings.ToLower(phrase)) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return len(clauses) > 0
}

func TestMatchAgreesWithOracle(t *testing.T) {
	queries := [][]Clause{
		{{" we need to", " we should", " lets", " we have", " we will", " we"}, {" them", " him", " her", " all", " entire"}},
		{{" we"}, {" her"}, {"dox", "raid", "report", "spam", "flag", "brigade", "swat"}},
		{{" We Should"}, {"İstanbul", " ſwat", "K"}},
		{{"", " "}},
		{{" "}},
		{{" x"}, {}},
		nil,
	}
	bodies := []string{
		"", " ", "we", "we should report her", "We Should Report HER", "wE", " we", "x", "xx x",
		"lets all go", "letsall", "entire", "so we will dox them",
		"İSTANBUL we should", "we ſwat him", "\u212a we", "WE\u212a", "we\xff should \xc5 her", "\xe2\x84 we all",
		"ＷＥ should", "we\nshould raid her", "émigré we all",
	}
	g := corpus.NewGenerator(corpus.Config{Seed: 11, VolumeScale: 200_000, PositiveScale: 100})
	for _, cp := range g.Generate() {
		for i := range cp.Docs {
			bodies = append(bodies, cp.Docs[i].Text)
		}
	}
	for _, clauses := range queries {
		q := New(clauses...)
		for _, b := range bodies {
			if got, want := q.Match(b), oracleMatch(clauses, b); got != want {
				t.Fatalf("New(%q).Match(%q) = %v, oracle %v", clauses, b, got, want)
			}
		}
	}
}

func TestMatchAllocs(t *testing.T) {
	q := WithAttackTerms(Figure4())
	for _, body := range []string{
		"we should all get lunch, tell them to meet at noon",
		"ok so we need to mass report him today",
	} {
		if n := testing.AllocsPerRun(100, func() { q.Match(body) }); n != 0 {
			t.Errorf("Match(%q) allocates %.0f times", body, n)
		}
	}
}
