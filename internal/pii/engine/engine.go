package engine

// Engine/Session: the one-pass orchestration. An Engine is compiled
// once from a Spec (literals, per-type gates, per-pattern programs,
// candidate strategies and verify hooks) and shared read-only across
// sessions; a Session owns all mutable scratch (prefilter facts, the
// backtracking machine, the lazy-DFA state cache, the span arena) and
// is reused call-to-call, so steady-state extraction performs zero
// heap allocations.
//
// Extraction per document:
//
//  1. one Teddy scan -> literal mask, digit count/runs, tracked
//     literal events, fold flag;
//  2. per-type gates (same necessary-condition gates as the legacy
//     prefilter) decide which families run at all;
//  3. digit families are additionally gated per digit region by the
//     lazy DFA's accept mask;
//  4. admitted families enumerate candidate start positions (a
//     proven superset of real match starts) and run the exact
//     backtracker with per-pattern resume positions, reproducing
//     FindAll's non-overlapping leftmost-first semantics;
//  5. verify hooks normalise values into the session arena; spans
//     are sorted by (type, value) and de-duplicated.

// CandKind selects a pattern's candidate-enumeration strategy.
type CandKind uint8

const (
	// CandDigitRun anchors candidates on ASCII digit runs: each run's
	// start, optionally a prefix byte just before the run, and
	// optionally interior digits from a designated set.
	CandDigitRun CandKind = iota
	// CandEvent anchors candidates on tracked-literal occurrences at
	// fixed (or windowed) offsets before the occurrence end.
	CandEvent
	// CandEmail is the '@'-event strategy: walk back over the
	// pattern's first-byte class to enumerate boundary starts.
	CandEmail
)

// TrackRef binds a pattern to one tracked literal: for an occurrence
// ending at e, the candidate base is e-Back, and starts
// base-Window..base are tried in ascending order.
type TrackRef struct {
	ID     int
	Back   int
	Window int
}

// VerifyFunc validates and normalises a raw match, appending the
// normalised value to arena. It returns the (possibly grown) arena,
// the value's offset and length within it, and whether the match is
// admitted. capS/capE are -1 when the pattern has no capture group.
type VerifyFunc func(text string, start, end, capS, capE int32, arena []byte) ([]byte, int32, int32, bool)

// TypeSpec is one PII family's gate: every Groups mask must intersect
// the document's literal mask, and the digit count must reach
// MinDigits.
type TypeSpec struct {
	Name      string
	Groups    []uint64
	MinDigits int
}

// PatternSpec is one compiled pattern within a family.
type PatternSpec struct {
	Type        int // index into Spec.Types
	AST         *Node
	Kind        CandKind
	DigitFamily bool   // gate per digit region through the lazy DFA
	Prefix      string // CandDigitRun: bytes allowed at runStart-1
	Interior    string // CandDigitRun: digits valid as interior starts
	Track       []TrackRef
	Verify      VerifyFunc
}

// Spec is the full engine specification.
type Spec struct {
	Literals []TeddyLiteral
	Types    []TypeSpec
	Patterns []PatternSpec
}

type pattern struct {
	spec     PatternSpec
	prog     *Program
	dfaBit   int
	prefix   class
	interior class
}

// Engine is the compiled, immutable engine. Safe for concurrent use
// through per-goroutine Sessions.
type Engine struct {
	spec       Spec
	teddy      *Teddy
	pats       []pattern
	patsByType [][]int
	dfa        *DFA
}

// New compiles a Spec.
func New(spec Spec) *Engine {
	if len(spec.Types) > 32 {
		panic("engine: too many types")
	}
	e := &Engine{spec: spec, teddy: NewTeddy(spec.Literals)}
	e.patsByType = make([][]int, len(spec.Types))
	var dfaProgs []*Program
	for _, ps := range spec.Patterns {
		p := pattern{spec: ps, prog: Compile(ps.AST), dfaBit: -1}
		if ps.DigitFamily {
			p.dfaBit = len(dfaProgs)
			dfaProgs = append(dfaProgs, p.prog)
		}
		p.prefix = parseClassSpec(ps.Prefix)
		p.interior = parseClassSpec(ps.Interior)
		e.patsByType[ps.Type] = append(e.patsByType[ps.Type], len(e.pats))
		e.pats = append(e.pats, p)
	}
	e.dfa = NewDFA(dfaProgs)
	return e
}

// Span is one extracted, verified, normalised match. Value aliases
// the session arena: valid until the next Extract on that session.
type Span struct {
	Type       int
	Start, End int
	Value      []byte
}

// Stats describes one Extract call for observability wiring.
type Stats struct {
	Admitted uint32     // bitmask over type indices whose gate admitted
	Matches  [32]uint32 // verified raw match count per type (pre-dedupe)
}

// rec is the internal span record; values are arena offsets so arena
// regrowth cannot invalidate them.
type rec struct {
	typ            int32
	start, end     int32
	valOff, valLen int32
}

// Session holds all mutable scan state. Not safe for concurrent use;
// create one per goroutine (they are cheap and internally reused).
type Session struct {
	e     *Engine
	facts Facts
	m     Machine
	dfa   *dfaRun

	recs  []rec
	arena []byte
	out   []Span

	resume     []int32
	regions    []Run
	regionMask []uint16
	runRegion  []int32
	haveReg    bool
	cands      []int32

	Stats Stats
}

// NewSession creates a session for e.
func (e *Engine) NewSession() *Session {
	return &Session{
		e:      e,
		dfa:    newDFARun(e.dfa),
		resume: make([]int32, len(e.pats)),
	}
}

// Extract scans text and returns all verified spans, sorted by
// (type, value) and de-duplicated. The returned slice and the Values
// it holds are valid until the next call on this session.
func (s *Session) Extract(text string) []Span {
	s.e.teddy.Scan(text, &s.facts)
	s.recs = s.recs[:0]
	s.arena = s.arena[:0]
	s.Stats = Stats{}
	s.haveReg = false
	for i := range s.resume {
		s.resume[i] = 0
	}
	for ti := range s.e.spec.Types {
		if !s.admits(ti) {
			continue
		}
		s.Stats.Admitted |= 1 << uint(ti)
		for _, pi := range s.e.patsByType[ti] {
			s.runPattern(text, pi)
		}
	}
	return s.finalize()
}

func (s *Session) admits(ti int) bool {
	t := &s.e.spec.Types[ti]
	if s.facts.Digits < t.MinDigits {
		return false
	}
	for _, g := range t.Groups {
		if s.facts.LitMask&g == 0 {
			return false
		}
	}
	return true
}

func (s *Session) runPattern(text string, pi int) {
	p := &s.e.pats[pi]
	switch p.spec.Kind {
	case CandDigitRun:
		s.runDigitPattern(text, pi, p)
	case CandEvent:
		if s.facts.HasFold {
			s.runFoldFallback(text, pi, p)
			return
		}
		s.runEventPattern(text, pi, p)
	case CandEmail:
		s.runEmailPattern(text, pi, p)
	}
}

// runDigitPattern enumerates digit-run candidates, consulting the
// lazy DFA's per-region accept mask for DFA-gated families.
func (s *Session) runDigitPattern(text string, pi int, p *pattern) {
	if p.dfaBit >= 0 && !s.haveReg {
		s.buildRegions(text)
	}
	for ri := range s.facts.Runs {
		run := s.facts.Runs[ri]
		if p.dfaBit >= 0 {
			if s.regionMask[s.runRegion[ri]]&(1<<uint(p.dfaBit)) == 0 {
				continue
			}
		}
		if run.Start > 0 && p.prefix.has(text[run.Start-1]) {
			s.try(text, pi, run.Start-1)
		}
		s.try(text, pi, run.Start)
		if p.interior.bits[0] != 0 {
			for j := run.Start + 1; j < run.End; j++ {
				if p.interior.has(text[j]) {
					s.try(text, pi, j)
				}
			}
		}
	}
}

// buildRegions merges digit runs separated by small gaps into scan
// regions (no pattern crosses more than 2 non-digit bytes between
// digits), extends each region to cover legal prefix bytes, and runs
// the lazy DFA once per region to compute the family accept mask.
func (s *Session) buildRegions(text string) {
	const mergeGap = 8
	s.regions = s.regions[:0]
	s.regionMask = s.regionMask[:0]
	s.runRegion = s.runRegion[:0]
	for _, run := range s.facts.Runs {
		if n := len(s.regions); n > 0 && run.Start-s.regions[n-1].End <= mergeGap {
			s.regions[n-1].End = run.End
		} else {
			lo := run.Start - 2
			if lo < 0 {
				lo = 0
			}
			s.regions = append(s.regions, Run{Start: lo, End: run.End})
		}
		s.runRegion = append(s.runRegion, int32(len(s.regions)-1))
	}
	for _, reg := range s.regions {
		s.regionMask = append(s.regionMask, s.dfa.ScanRegion(text, reg.Start, reg.End))
	}
	s.haveReg = true
}

// runEventPattern turns tracked-literal occurrences into candidate
// windows. Candidates for multi-literal patterns are collected and
// sorted so per-pattern attempts stay in ascending order.
func (s *Session) runEventPattern(text string, pi int, p *pattern) {
	if len(p.spec.Track) == 1 {
		tr := p.spec.Track[0]
		for _, ev := range s.facts.Events {
			if ev.ID != tr.ID {
				continue
			}
			s.tryWindow(text, pi, ev.End-int32(tr.Back), int32(tr.Window))
		}
		return
	}
	s.cands = s.cands[:0]
	for _, ev := range s.facts.Events {
		for _, tr := range p.spec.Track {
			if ev.ID == tr.ID {
				s.cands = append(s.cands, ev.End-int32(tr.Back))
			}
		}
	}
	sortI32(s.cands)
	for _, c := range s.cands {
		s.try(text, pi, c)
	}
}

// tryWindow attempts starts base-window..base ascending.
func (s *Session) tryWindow(text string, pi int, base, window int32) {
	lo := base - window
	if lo < 0 {
		lo = 0
	}
	for c := lo; c <= base; c++ {
		s.try(text, pi, c)
	}
}

// runFoldFallback handles documents containing a non-ASCII fold rune
// (U+017F / U+212A): literal byte-offset arithmetic no longer maps
// folded-view positions to byte positions, so event-anchored
// patterns degrade to trying every position whose byte can begin a
// match. Rare by construction; the differential fuzz corpus pins it.
func (s *Session) runFoldFallback(text string, pi int, p *pattern) {
	first := &p.prog.first
	for i := 0; i < len(text); i++ {
		b := text[i]
		if b < 0x80 {
			if first.has(b) {
				s.try(text, pi, int32(i))
			}
			continue
		}
		if (first.foldS && b == 0xC5) || (first.foldK && b == 0xE2) {
			s.try(text, pi, int32(i))
		}
	}
}

// runEmailPattern: for each '@' occurrence, walk back over the
// pattern's first-byte class (the local-part class) and try the
// first word-boundary start; the domain half is independent of the
// start, so one failed attempt rules out the whole run.
func (s *Session) runEmailPattern(text string, pi int, p *pattern) {
	tr := p.spec.Track[0]
	local := &p.prog.first
	for _, ev := range s.facts.Events {
		if ev.ID != tr.ID {
			continue
		}
		at := ev.End - 1 // position of '@'
		if at < s.resume[pi] {
			continue
		}
		r := at
		for r > 0 && r > s.resume[pi] && local.has(text[r-1]) {
			r--
		}
		for c := r; c < at; c++ {
			if !atBoundary(text, c) {
				continue
			}
			if !s.try(text, pi, c) {
				break // domain failure: no later start in this run can match
			}
			break
		}
	}
}

// try attempts pattern pi at start c, honouring the per-pattern
// resume position, and reports whether the machine matched (whether
// or not verification admitted the span).
func (s *Session) try(text string, pi int, c int32) bool {
	if c < s.resume[pi] || int(c) >= len(text) {
		return false
	}
	p := &s.e.pats[pi]
	end, capS, capE, ok := s.m.Run(p.prog, text, c)
	if !ok {
		return false
	}
	s.resume[pi] = end
	arena, off, n, admit := p.spec.Verify(text, c, end, capS, capE, s.arena)
	s.arena = arena
	if admit {
		s.recs = append(s.recs, rec{
			typ: int32(p.spec.Type), start: c, end: end, valOff: off, valLen: n,
		})
		s.Stats.Matches[p.spec.Type]++
	}
	return true
}

// finalize sorts recs by (type, value), removes duplicates, and
// materialises the public span slice.
func (s *Session) finalize() []Span {
	for i := 1; i < len(s.recs); i++ {
		for j := i; j > 0 && s.recLess(j, j-1); j-- {
			s.recs[j], s.recs[j-1] = s.recs[j-1], s.recs[j]
		}
	}
	s.out = s.out[:0]
	for i := range s.recs {
		if i > 0 && s.recEq(i, i-1) {
			continue
		}
		r := &s.recs[i]
		s.out = append(s.out, Span{
			Type:  int(r.typ),
			Start: int(r.start),
			End:   int(r.end),
			Value: s.arena[r.valOff : r.valOff+r.valLen],
		})
	}
	return s.out
}

func (s *Session) recLess(i, j int) bool {
	a, b := &s.recs[i], &s.recs[j]
	if a.typ != b.typ {
		return a.typ < b.typ
	}
	av := s.arena[a.valOff : a.valOff+a.valLen]
	bv := s.arena[b.valOff : b.valOff+b.valLen]
	n := len(av)
	if len(bv) < n {
		n = len(bv)
	}
	for k := 0; k < n; k++ {
		if av[k] != bv[k] {
			return av[k] < bv[k]
		}
	}
	return len(av) < len(bv)
}

func (s *Session) recEq(i, j int) bool {
	a, b := &s.recs[i], &s.recs[j]
	if a.typ != b.typ || a.valLen != b.valLen {
		return false
	}
	av := s.arena[a.valOff : a.valOff+a.valLen]
	bv := s.arena[b.valOff : b.valOff+b.valLen]
	for k := range av {
		if av[k] != bv[k] {
			return false
		}
	}
	return true
}

func sortI32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
