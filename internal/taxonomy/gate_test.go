package taxonomy

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp/syntax"
	"strings"
	"testing"
	"unicode"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cue_literals.golden from the current derivation")

// exampleTexts are the example sentences of taxonomy_test.go, as fuzz
// seeds.
var exampleTexts = []string{
	"Jane Roe must be harassed, get her phone number and address.",
	"make deep fakes of porn with them. send them to all their friends and parents and family.",
	"Physh his emails and find any info to blackmail with.",
	"Post FB & Twitter accounts so we can spam him with hate.",
	"We need to keep pushing that the LGBT flag is now a hate symbol. Use #ColorCulture on twitter and share on #DiversityWins.",
	"Let's mass-report his twitter and youtube...",
	"Report him to the neighbours, he should be more careful with his atrocious beliefs if he doesn't want ostracism.",
	"We should find all their yachts and stick trackers to them. And track them on gps.",
	"send her bleach and tell her she's trash",
	"everyone mass report his channel",
	"call the cops on him, tell them he has weapons",
	"raid the stream tonight",
	"leave one star reviews on her shop",
	"spread the dox to every board",
	"hijack the hashtag with our memes",
	"email her boss about what she posted",
	"track him on gps",
	"hack his account and post from it",
	"bully him until he leaves",
	"anyone want to play ranked tonight?",
	"the new update is out, patch notes look good",
	"contact your local elected representative about the bill",
	"I reported my own bug on the tracker",
	"mass report them all, report them until the account is gone",
	"bully him by raiding the stream, raid his chat",
	"get her phone number and address, then raid the stream and mass report her channel",
	"we need to mass report his channel, then raid the stream, and email her boss",
}

// FuzzCategorizeGateEquivalence holds the gated Categorize to the
// ungated oracle on arbitrary input: the gate may only ever skip a
// regexp that could not have matched.
func FuzzCategorizeGateEquivalence(f *testing.F) {
	for _, s := range exampleTexts {
		f.Add(s)
		f.Add(strings.ToUpper(s))
	}
	for _, s := range []string{
		"",
		"MaSs-RePoRt HiS cHaNnEl",
		"DOXX him, SWATTING works",
		// U+017F and U+212A inside cue words, at the start, the end and
		// next to the fold rune's own lead bytes.
		"maſs report his channel", "ſwat him", "ſpam her", "maſſ-flag it", "hate ſpeech",
		"hacK his account", "tracK them on gps", "Keep tabs on her", "hijacK the hashtag", "stalK her",
		"doſ", "\xc5", "\xe2\x84", "swa\xe2\x84t", "ma\xc5ss report", "\xc5\xbf\xc5\xbfwat", "hack\xe2\x84\xaa",
		// Newlines inside the .{0,40} / .{0,80} gaps (. does not cross them).
		"must be harassed\nget the phone number", "must be harassed, post the\naddress",
		"keep pushing that\nnow #tag", "keep pushing that the flag #ColorCulture",
		// Non-ASCII bytes adjacent to \b.
		"édox him", "dox\xff", "\xffdox", "doxé", "raid the stream", "brigadeñ", "日本swat日本", "dox́",
		"mass–report", "one‐star reviews",
	} {
		f.Add(s)
	}
	// 64 KiB pastes: cue-free, and with a cue buried past the middle.
	filler := strings.Repeat("lorem ipsum dolor sit amet 0123456789 ", 1725)
	f.Add(filler)
	f.Add(filler[:40000] + " Stick Trackers to them " + filler[40000:])

	c := NewCategorizer()
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := c.Categorize(text), oracleCategorize(c, text); got != want {
			t.Fatalf("gated %v, oracle %v for %q", got.Subs(), want.Subs(), text)
		}
	})
}

// TestCueLiteralsGolden pins every cue's derived required-literal set in
// a reviewable file and holds each to the gate's minimum: non-empty, no
// literal under three bytes. Regenerate with -update.
func TestCueLiteralsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range subTable {
		fmt.Fprintf(&b, "# %s\n", s)
		for _, pat := range cuePatterns[s] {
			set, err := requiredLiterals(`(?i)` + pat)
			if err != nil {
				t.Fatalf("cue %q: %v", pat, err)
			}
			if len(set) == 0 {
				t.Errorf("cue %q has no required literal: it cannot be gated", pat)
				continue
			}
			if n := lightest(set); n < 3 {
				t.Errorf("cue %q: lightest required literal of %q weighs %d bytes, want >= 3", pat, set, n)
			}
			fmt.Fprintf(&b, "%s\n\t%q\n", pat, set)
		}
	}
	path := filepath.Join("testdata", "cue_literals.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("derived literal sets differ from %s (review the change, then go test -run TestCueLiteralsGolden -update):\n%s", path, b.String())
	}
}

func TestRequiredLiterals(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		want    []string
	}{
		{`(?i)\bdox+\b`, []string{"dox"}},                                               // x+ contributes x
		{`(?i)\bswat+(?:ing|ed)?\b`, []string{"swat"}},                                  // ? is optional
		{`(?i)\bmust be harassed.{0,40}(?:phone number|address)`, []string{"harassed"}}, // .{0,n} ends a run
		{`(?i)\bmanipulat\w+ public (?:perception|opinion)\b`, []string{"anipulat"}},
		{`(?i)\bzoom ?bomb\b`, []string{"oom bomb", "zoombomb"}},
		{`(?i)\bmass[- ]?(?:flag)\b`, []string{"ass flag", "ass-flag", "massflag"}}, // tiny class expands
		{`(?i)Kſ`, []string{"ks"}},                                                  // fold runes in a pattern
		{`(?i)ab|cd`, []string{"ab", "cd"}},
		{`(?i)ab|.*`, nil}, // one branch requires nothing
		{`(?i)(?:ab)*`, nil},
		{`(?i)\w+`, nil},
		{`(?i)a?`, nil},
	} {
		got, err := requiredLiterals(tc.pattern)
		if err != nil {
			t.Fatalf("%s: %v", tc.pattern, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("requiredLiterals(%s) = %q, want %q", tc.pattern, got, tc.want)
		}
	}
}

// sampleMatch returns a random string the (sub)pattern can match, taking
// every case and fold variant ((?i) lets U+017F stand for s and U+212A
// for k) with equal weight.
func sampleMatch(re *syntax.Regexp, rng *rand.Rand) string {
	var b strings.Builder
	repeat := func(sub *syntax.Regexp, n int) {
		for ; n > 0; n-- {
			b.WriteString(sampleMatch(sub, rng))
		}
	}
	switch re.Op {
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			if re.Flags&syntax.FoldCase != 0 {
				for n := rng.Intn(3); n > 0; n-- {
					r = unicode.SimpleFold(r)
				}
			}
			b.WriteRune(r)
		}
	case syntax.OpCharClass:
		i := 2 * rng.Intn(len(re.Rune)/2)
		lo, hi := re.Rune[i], re.Rune[i+1]
		b.WriteRune(lo + rune(rng.Int63n(int64(hi-lo)+1)))
	case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		b.WriteString([]string{" ", "x", "é", "#", "ſ", "K", "\xff"}[rng.Intn(7)])
	case syntax.OpCapture:
		repeat(re.Sub[0], 1)
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			repeat(sub, 1)
		}
	case syntax.OpAlternate:
		repeat(re.Sub[rng.Intn(len(re.Sub))], 1)
	case syntax.OpQuest:
		repeat(re.Sub[0], rng.Intn(2))
	case syntax.OpStar:
		repeat(re.Sub[0], rng.Intn(3))
	case syntax.OpPlus:
		repeat(re.Sub[0], 1+rng.Intn(3))
	case syntax.OpRepeat:
		n := re.Min + rng.Intn(4)
		if re.Max >= 0 && n > re.Max {
			n = re.Max
		}
		repeat(re.Sub[0], n)
	}
	return b.String()
}

// TestGateAdmitsSampledMatches tests the gate's necessary condition
// where random fuzzing rarely reaches: on strings generated from each
// cue pattern itself. Whenever a cue's regexp matches, the gate must
// have let that rule through.
func TestGateAdmitsSampledMatches(t *testing.T) {
	c := NewCategorizer()
	rng := rand.New(rand.NewSource(1))
	for i, r := range c.rules {
		re, err := syntax.Parse(r.re.String(), syntax.Perl)
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for n := 0; n < 300; n++ {
			text := []string{"", "so ", "É", "x"}[rng.Intn(4)] + sampleMatch(re, rng) + []string{"", " now", "é", "s"}[rng.Intn(4)]
			if got, want := c.Categorize(text), oracleCategorize(c, text); got != want {
				t.Fatalf("gated %v, oracle %v for %q", got.Subs(), want.Subs(), text)
			}
			if !r.re.MatchString(text) {
				continue
			}
			matches++
			if hit := c.gate.scan(text); hit[i/64]>>(i%64)&1 == 0 {
				t.Fatalf("cue %s matches %q but the gate did not admit it", r.re, text)
			}
		}
		if matches == 0 {
			t.Errorf("no sampled string matched cue %s", r.re)
		}
	}
}

// TestGateBudget keeps the automaton inside the size the design argues
// for (DESIGN.md §7.1): it must stay cache-resident and cheap enough to
// build that constructing it lazily is invisible.
func TestGateBudget(t *testing.T) {
	g := NewCategorizer().gate
	states, tableBytes := len(g.next)>>g.shift, 2*len(g.next)
	t.Logf("%d states x %d classes, %d KiB, %d hit states", states, 1<<g.shift, tableBytes>>10, len(g.hits))
	if tableBytes > 128<<10 {
		t.Errorf("gate table is %d bytes, budget 128 KiB", tableBytes)
	}
}

func TestGateScanFolds(t *testing.T) {
	c := NewCategorizer()
	plain := c.gate.scan("mass report his channel, then stalk her")
	if plain == (ruleSet{}) {
		t.Fatal("gate found no literal in a cue sentence")
	}
	for _, folded := range []string{
		"MASS REPORT HIS CHANNEL, THEN STALK HER",
		"maſs report his channel, then ſtalK her",
	} {
		if got := c.gate.scan(folded); got != plain {
			t.Errorf("scan(%q) = %x, want %x", folded, got, plain)
		}
	}
	if got := c.gate.scan("anyone want to play ranked tonight?"); got != (ruleSet{}) {
		t.Errorf("gate let rules %x through on a cue-free sentence", got)
	}
}

func TestCategorizeAllocs(t *testing.T) {
	c := NewCategorizer()
	for _, text := range []string{
		"anyone want to play ranked tonight?",
		"The new update is out — patch notes look good, see you all at 9",
		strings.Repeat("lorem ipsum dolor sit amet ", 400),
	} {
		if !c.Categorize(text).Empty() {
			t.Fatalf("%q is not cue-free", text)
		}
		if n := testing.AllocsPerRun(100, func() { c.Categorize(text) }); n != 0 {
			t.Errorf("Categorize allocates %.0f times on cue-free %q", n, text[:20])
		}
	}
}

func TestSharedIsOneInstance(t *testing.T) {
	if Shared() != Shared() {
		t.Error("Shared built two categorizers")
	}
}

func TestLabelIgnoresUnknownSubs(t *testing.T) {
	l := NewLabel(Sub("bogus"), SubDoxing)
	if l.Size() != 1 || !has(l, SubDoxing) || has(l, Sub("bogus")) || l.HasParent(Parent("bogus")) {
		t.Errorf("label = %v", l.Subs())
	}
}
