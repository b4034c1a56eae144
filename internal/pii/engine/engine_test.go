package engine

import (
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDFACacheFlushKeepsScanPosition drives the lazy DFA past
// maxDFAStates inside one region. Pattern 0, a[ab]{12}, has a state for
// every set of 'a' positions among the last 13 bytes, so random a/b
// text keeps minting states and the cache flushes again and again.
// Pattern 1, c[ab]*d, can only match across those flushes: the 'c' is
// parked in the in-flight state when a flush happens, so the flush
// must re-intern that state rather than restart the region.
func TestDFACacheFlushKeepsScanPosition(t *testing.T) {
	progs := []*Program{
		Compile(Seq(Lit("a"), Rep(Cls("ab"), 12, 12))),
		Compile(Seq(Lit("c"), Star(Cls("ab")), Lit("d"))),
	}
	run := newDFARun(NewDFA(progs))
	rng := rand.New(rand.NewSource(1))
	ab := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return string(b)
	}
	for _, tc := range []struct {
		name string
		text string
		want uint16
	}{
		{"match across flushes", ab(100) + "c" + ab(6000) + "d" + ab(100), 0b11},
		{"broken by x", ab(100) + "c" + ab(3000) + "x" + ab(3000) + "d" + ab(100), 0b01},
		{"no c", ab(6000) + "d", 0b01},
	} {
		gen := run.gen
		if got := run.ScanRegion(tc.text, 0, int32(len(tc.text))); got != tc.want {
			t.Errorf("%s: mask %02b, want %02b", tc.name, got, tc.want)
		}
		if run.gen-gen < 2 {
			t.Errorf("%s: %d cache flushes, want at least 2 (the test no longer reaches the flush path)", tc.name, run.gen-gen)
		}
		if len(run.sets) > maxDFAStates {
			t.Errorf("%s: %d cached states, over the %d bound", tc.name, len(run.sets), maxDFAStates)
		}
	}

	// A region inside a longer text: the match must lie wholly inside.
	text := "c" + ab(2000) + "d"
	if got := run.ScanRegion(text, 1, int32(len(text))); got&0b10 != 0 {
		t.Errorf("region excluding the 'c': mask %02b reports pattern 1", got)
	}
}

// TestBacktrackerMemoThreshold checks both sides of memoThreshold
// against Go's regexp. The first alternative, three adjacent a* then c,
// takes ~n³/6 steps to fail on a long run of a's without the memo; a
// run that needs few steps never turns the memo on, and one that
// crosses the threshold must still reach the second alternative's
// match with regexp's extent and capture.
func TestBacktrackerMemoThreshold(t *testing.T) {
	a := func() *Node { return Star(Cls("a")) }
	prog := Compile(Alt(Seq(a(), a(), a(), Lit("c")), Seq(a(), Cap(a()), Lit("b"))))
	re := regexp.MustCompile(`^(?:a*a*a*c|a*(a*)b)`)
	var m Machine
	for _, tc := range []struct {
		text   string
		memoOn bool
	}{
		{"aaab", false},
		{strings.Repeat("a", 10) + "c", false},
		{strings.Repeat("a", 400) + "c", false},
		{strings.Repeat("a", 400) + "b", true},
		{strings.Repeat("a", 400), true},
	} {
		end, capS, capE, ok := m.Run(prog, tc.text, 0)
		want := re.FindStringSubmatchIndex(tc.text)
		if ok != (want != nil) || ok && (int(end) != want[1] || int(capS) != want[2] || int(capE) != want[3]) {
			t.Errorf("len %d: Run = (%d, %d, %d, %v), regexp %v", len(tc.text), end, capS, capE, ok, want)
		}
		if m.memoOn != tc.memoOn {
			t.Errorf("len %d: memo on = %v after %d steps, want %v", len(tc.text), m.memoOn, m.steps, tc.memoOn)
		}
		// Without the memo the a* a* a* c branch alone takes ~10.7M steps.
		if m.steps > 1<<20 {
			t.Errorf("len %d: %d steps, the memo did not bound the search", len(tc.text), m.steps)
		}
	}
}

// TestTeddyLaneDispatch packs random literal sets into all four lanes
// and checks every accept is dispatched to the literal that ended
// there: the gate mask and the tracked events must equal a naive
// search of the lower-cased text, overlaps and lane neighbours
// included.
func TestTeddyLaneDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const alphabet = "abcAB1 \xc3\xa9"
	for trial := 0; trial < 200; trial++ {
		var lits []TeddyLiteral
		total := 0
		for {
			n := 1 + rng.Intn(8)
			if total+n > 230 || len(lits) == 64 {
				break
			}
			b := make([]byte, n)
			for i := range b {
				b[i] = "abc1"[rng.Intn(4)]
			}
			gate, track := -1, -1
			if rng.Intn(3) > 0 {
				gate = len(lits)
			}
			if rng.Intn(2) == 0 {
				track = len(lits)
			}
			lits = append(lits, TeddyLiteral{Text: string(b), GateBit: gate, TrackID: track})
			total += n
		}
		td := NewTeddy(lits)
		if td.initMask[laneWords-1] == 0 {
			t.Fatalf("trial %d: %d literal bytes left the last lane empty", trial, total)
		}
		text := make([]byte, 300)
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		var f Facts
		td.Scan(string(text), &f)

		// Lower-case byte by byte: the text is not valid UTF-8.
		lowerB := []byte(string(text))
		for i, c := range lowerB {
			if 'A' <= c && c <= 'Z' {
				lowerB[i] = c + 'a' - 'A'
			}
		}
		lower := string(lowerB)
		var wantMask uint64
		var wantEvents []LitEvent
		for i := 0; i < len(lower); i++ {
			for _, l := range lits {
				if !strings.HasPrefix(lower[i:], l.Text) {
					continue
				}
				if l.GateBit >= 0 {
					wantMask |= 1 << uint(l.GateBit)
				}
				if l.TrackID >= 0 {
					wantEvents = append(wantEvents, LitEvent{ID: l.TrackID, End: int32(i + len(l.Text))})
				}
			}
		}
		if f.LitMask != wantMask {
			t.Fatalf("trial %d: LitMask %064b, want %064b", trial, f.LitMask, wantMask)
		}
		got := append([]LitEvent(nil), f.Events...)
		for _, evs := range [][]LitEvent{got, wantEvents} {
			sort.Slice(evs, func(a, b int) bool {
				if evs[a].End != evs[b].End {
					return evs[a].End < evs[b].End
				}
				return evs[a].ID < evs[b].ID
			})
		}
		if len(got) != len(wantEvents) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(wantEvents))
		}
		for i := range got {
			if got[i] != wantEvents[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], wantEvents[i])
			}
		}
	}
}
