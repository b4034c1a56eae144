package taxonomy

import (
	"regexp/syntax"
	"slices"
	"strings"
)

// Required-literal derivation for the cue gate (DESIGN.md §7.1).
//
// requiredLiterals returns, for one cue pattern, a set of lower-case
// ASCII strings such that every text the pattern matches contains at
// least one of them once the text is folded the way (?i) folds it
// (A–Z→a–z, U+017F→s, U+212A→k). The set is a necessary condition only:
// the compiled regexp stays the verifier. Derivation is mechanical over
// the regexp/syntax tree, so a new cue needs no hand-written literal.
//
// Every node yields a litInfo. Concatenation walks its children keeping
// the set of strings the match so far must end with; a child that can
// match unboundedly many strings (.{0,40}, \w+, a large class) ends the
// run, which becomes one candidate set, and the best candidate wins.

const (
	// maxLitSet caps a cross product: a run that would exceed it is
	// closed as a candidate and a new run starts at the next child.
	maxLitSet = 32
	// maxLitLen is the number of bytes kept per literal. Any substring of
	// a required literal is still required, and eight bytes of a cue
	// phrase are already rare in benign text, so longer literals would
	// only buy automaton states.
	maxLitLen = 8
	// maxClassLits is the largest character class expanded into
	// single-character literals ([- ] yes, \w no).
	maxClassLits = 4
)

// litInfo describes the folded strings one syntax node can match.
type litInfo struct {
	// exact is the complete set of strings the node matches, or nil when
	// that set is unbounded or larger than maxLitSet.
	exact []string
	// When exact is nil: every match starts with one of pre and ends
	// with one of suf (nil: nothing known), and contains one of best
	// (nil: no required literal known).
	pre, suf, best []string
}

var emptyOnly = []string{""}

// requiredLiterals parses pattern the way NewCategorizer compiles it and
// returns its required-literal set, or nil when none can be derived.
func requiredLiterals(pattern string) ([]string, error) {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil, err
	}
	info := literalsOf(re)
	if info.exact != nil {
		return betterSet(nil, info.exact), nil
	}
	return info.best, nil
}

func literalsOf(re *syntax.Regexp) litInfo {
	switch re.Op {
	case syntax.OpEmptyMatch, syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText,
		syntax.OpEndText, syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return litInfo{exact: emptyOnly}
	case syntax.OpLiteral:
		var b strings.Builder
		for _, r := range re.Rune {
			c, ok := foldRune(r)
			if !ok {
				return litInfo{}
			}
			b.WriteByte(c)
		}
		return litInfo{exact: []string{b.String()}}
	case syntax.OpCharClass:
		return litInfo{exact: classLiterals(re.Rune)}
	case syntax.OpCapture:
		return literalsOf(re.Sub[0])
	case syntax.OpConcat:
		return concatLiterals(re.Sub)
	case syntax.OpAlternate:
		return alternateLiterals(re.Sub)
	case syntax.OpQuest:
		if sub := literalsOf(re.Sub[0]); sub.exact != nil {
			return litInfo{exact: union(sub.exact, emptyOnly)}
		}
		return litInfo{}
	case syntax.OpPlus:
		return repeatedLiterals(literalsOf(re.Sub[0]))
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return repeatedLiterals(literalsOf(re.Sub[0]))
		}
		return litInfo{}
	default: // OpStar, OpAnyChar, OpAnyCharNotNL, OpNoMatch: nothing is required.
		return litInfo{}
	}
}

// repeatedLiterals is x+ / x{n,} for n ≥ 1: the match starts with an x,
// ends with an x and therefore contains whatever x requires.
func repeatedLiterals(sub litInfo) litInfo {
	if sub.exact != nil {
		return litInfo{pre: sub.exact, suf: sub.exact, best: betterSet(nil, sub.exact)}
	}
	return litInfo{pre: sub.pre, suf: sub.suf, best: sub.best}
}

func alternateLiterals(subs []*syntax.Regexp) litInfo {
	out := litInfo{exact: []string{}, pre: []string{}, suf: []string{}, best: []string{}}
	for _, s := range subs {
		in := literalsOf(s)
		if in.exact != nil {
			in.pre, in.suf, in.best = in.exact, in.exact, betterSet(nil, in.exact)
		}
		out.exact = unionOrNil(out.exact, in.exact)
		out.pre = unionOrNil(out.pre, in.pre)
		out.suf = unionOrNil(out.suf, in.suf)
		out.best = unionOrNil(out.best, in.best)
	}
	if out.exact != nil {
		return litInfo{exact: out.exact}
	}
	out.best = betterSet(nil, out.best)
	return out
}

func concatLiterals(subs []*syntax.Regexp) litInfo {
	var (
		out   litInfo
		cur   = emptyOnly // strings the match so far must end with
		exact = true      // no run has been closed yet
	)
	closeRun := func(next []string) {
		out.best = betterSet(out.best, cur)
		if exact {
			out.pre, exact = cur, false
		}
		cur = next
	}
	for _, s := range subs {
		in := literalsOf(s)
		if in.exact != nil {
			if joined := cross(cur, in.exact); joined != nil {
				cur = joined
			} else {
				closeRun(in.exact)
			}
			continue
		}
		if joined := cross(cur, in.pre); joined != nil {
			cur = joined
		}
		suf := in.suf
		if suf == nil {
			suf = emptyOnly
		}
		closeRun(suf)
		out.best = betterSet(out.best, in.best)
	}
	if exact {
		return litInfo{exact: cur}
	}
	out.best = betterSet(out.best, cur)
	out.suf = cur
	return out
}

// foldRune maps a pattern rune onto the lower-case ASCII byte the scan
// sees for every text rune that can match it under (?i); ok is false for
// runes outside that alphabet.
func foldRune(r rune) (byte, bool) {
	switch {
	case r == 0x017F:
		return 's', true
	case r == 0x212A:
		return 'k', true
	case r >= 0x80:
		return 0, false
	case 'A' <= r && r <= 'Z':
		return byte(r) + 'a' - 'A', true
	}
	return byte(r), true
}

// classLiterals expands a character class (lo/hi rune pairs) into
// single-byte literals, or nil when it is too large or leaves the
// gate's alphabet.
func classLiterals(ranges []rune) []string {
	var out []string
	for i := 0; i+1 < len(ranges); i += 2 {
		if ranges[i+1]-ranges[i] > 2*maxClassLits {
			return nil
		}
		for r := ranges[i]; r <= ranges[i+1]; r++ {
			c, ok := foldRune(r)
			if !ok {
				return nil
			}
			out = union(out, []string{string(c)})
			if len(out) > maxClassLits {
				return nil
			}
		}
	}
	return out
}

// cross returns every a+b, or nil when either side is unknown or the
// product exceeds maxLitSet.
func cross(as, bs []string) []string {
	if as == nil || bs == nil || len(as)*len(bs) > maxLitSet {
		return nil
	}
	out := make([]string, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, a+b)
		}
	}
	return dedupe(out)
}

func union(a, b []string) []string {
	return dedupe(append(append([]string(nil), a...), b...))
}

// unionOrNil is union for sets where nil means "unknown": unknown
// absorbs, and so does a union larger than maxLitSet.
func unionOrNil(a, b []string) []string {
	if a == nil || b == nil {
		return nil
	}
	if u := union(a, b); len(u) <= maxLitSet {
		return u
	}
	return nil
}

// dedupe sorts s and removes duplicates, in place.
func dedupe(s []string) []string {
	slices.Sort(s)
	return slices.Compact(s)
}

// betterSet returns whichever of best and cand gates better (setLess),
// after normalising cand: every literal is cut to maxLitLen bytes — its
// tail or its head, whichever set comes out better — and literals that
// contain another literal of the set are dropped. A set containing the
// empty string requires nothing and never wins.
func betterSet(best, cand []string) []string {
	for _, l := range cand {
		if l == "" {
			return best
		}
	}
	for _, tail := range []bool{true, false} {
		if norm := normalise(cand, tail); len(norm) > 0 && (best == nil || setLess(norm, best)) {
			best = norm
		}
	}
	return best
}

func normalise(set []string, tail bool) []string {
	cut := make([]string, 0, len(set))
	for _, l := range set {
		if len(l) > maxLitLen && tail {
			l = l[len(l)-maxLitLen:]
		} else if len(l) > maxLitLen {
			l = l[:maxLitLen]
		}
		cut = append(cut, l)
	}
	cut = dedupe(cut)
	var kept []string
	for i, l := range cut {
		redundant := false
		for j, other := range cut {
			if i != j && strings.Contains(l, other) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, l)
		}
	}
	return kept
}

// setLess orders normalised literal sets best-first: heavier lightest
// literal, then fewer literals, then fewer bytes.
func setLess(a, b []string) bool {
	if wa, wb := lightest(a), lightest(b); wa != wb {
		return wa > wb
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return totalLen(a) < totalLen(b)
}

// weight is a literal's length not counting spaces. Spaces are the
// commonest byte of running text and a literal with many of them spans
// short words — " to his " — which are the common ones.
func weight(l string) int { return len(l) - strings.Count(l, " ") }

// lightest returns the smallest weight in the set.
func lightest(s []string) int {
	n := weight(s[0])
	for _, l := range s[1:] {
		if w := weight(l); w < n {
			n = w
		}
	}
	return n
}

func totalLen(s []string) int {
	n := 0
	for _, l := range s {
		n += len(l)
	}
	return n
}
