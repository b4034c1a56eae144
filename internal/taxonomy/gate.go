package taxonomy

// The cue gate: one Aho–Corasick DFA over every rule's required-literal
// set (literals.go). A single pass over a document yields the set of
// rules whose pattern can possibly match it; Categorize verifies only
// those with their compiled regexps. See DESIGN.md §7.1.

// ruleSet is a bitset over rule indices (rule order).
type ruleSet [2]uint64

const maxRules = 64 * len(ruleSet{})

func (rs *ruleSet) add(i int) { rs[i/64] |= 1 << (i % 64) }

func (rs *ruleSet) union(o ruleSet) {
	rs[0] |= o[0]
	rs[1] |= o[1]
}

// gate is the compiled automaton. Bytes are mapped onto a small class
// alphabet first — one class per distinct literal byte, class 0 for
// every byte no literal contains — so a state's row is stride entries,
// not 256. The scan folds A–Z, U+017F and U+212A inline, exactly as
// pii/engine's Teddy scan does: there is no second path for documents
// containing a fold rune.
type gate struct {
	class [256]uint8
	shift uint     // log2 of the row stride
	next  []uint16 // next[state<<shift|class]
	// States are numbered so that those at which some literal ends come
	// last: hits[s-firstHit] is the rule set of state s ≥ firstHit.
	firstHit uint16
	hits     []ruleSet
}

// newGate compiles lits[i], rule i's required literals, into one DFA.
func newGate(lits [][]string) *gate {
	if len(lits) > maxRules {
		panic("taxonomy: more cue rules than ruleSet bits")
	}
	g := &gate{}
	nclass := 1
	for _, set := range lits {
		for _, l := range set {
			for i := 0; i < len(l); i++ {
				if g.class[l[i]] == 0 {
					g.class[l[i]] = uint8(nclass)
					nclass++
				}
			}
		}
	}
	for c := byte('a'); c <= 'z'; c++ {
		g.class[c-'a'+'A'] = g.class[c]
	}
	for 1<<g.shift < nclass {
		g.shift++
	}
	stride := 1 << g.shift

	// Trie; rows hold child state numbers, 0 (the root) meaning "none".
	trie := make([]uint16, stride)
	ends := []ruleSet{{}}
	for rule, set := range lits {
		for _, l := range set {
			s := 0
			for i := 0; i < len(l); i++ {
				at := s<<g.shift | int(g.class[l[i]])
				if trie[at] == 0 {
					if len(ends) > 1<<16-1 {
						panic("taxonomy: cue gate exceeds 65535 states")
					}
					trie[at] = uint16(len(ends))
					trie = append(trie, make([]uint16, stride)...)
					ends = append(ends, ruleSet{})
				}
				s = int(trie[at])
			}
			ends[s].add(rule)
		}
	}

	// Breadth-first: fill the failure transitions in place (the trie
	// becomes the DFA) and fold each state's suffix hits into it.
	fail := make([]uint16, len(ends))
	queue := make([]uint16, 0, len(ends))
	queue = append(queue, 0)
	for head := 0; head < len(queue); head++ {
		s := int(queue[head])
		row, frow := trie[s<<g.shift:][:stride], trie[int(fail[s])<<g.shift:][:stride]
		for c := 0; c < stride; c++ {
			child := row[c]
			switch {
			case child == 0 && s != 0:
				row[c] = frow[c]
			case child != 0:
				if s != 0 {
					fail[child] = frow[c]
				}
				ends[child].union(ends[fail[child]])
				queue = append(queue, child)
			}
		}
	}

	// Renumber so that hit states come last, then emit the table.
	renum := make([]uint16, len(ends))
	n := uint16(0)
	for s := range ends {
		if ends[s] == (ruleSet{}) {
			renum[s] = n
			n++
		}
	}
	g.firstHit = n
	for s := range ends {
		if ends[s] != (ruleSet{}) {
			renum[s] = n
			n++
			g.hits = append(g.hits, ends[s])
		}
	}
	g.next = make([]uint16, len(trie))
	for s := range ends {
		row := g.next[int(renum[s])<<g.shift:][:stride]
		for c, t := range trie[s<<g.shift:][:stride] {
			row[c] = renum[t]
		}
	}
	return g
}

// scan returns the rules with a required literal in text.
func (g *gate) scan(text string) ruleSet {
	var hit ruleSet
	s := uint(0)
	for i := 0; i < len(text); i++ {
		c := text[i]
		cls := g.class[c]
		if c >= 0x80 {
			if c == 0xC5 && i+1 < len(text) && text[i+1] == 0xBF {
				cls, i = g.class['s'], i+1 // U+017F folds to 's'
			} else if c == 0xE2 && i+2 < len(text) && text[i+1] == 0x84 && text[i+2] == 0xAA {
				cls, i = g.class['k'], i+2 // U+212A folds to 'k'
			}
		}
		s = uint(g.next[s<<g.shift|uint(cls)])
		if s >= uint(g.firstHit) {
			hit.union(g.hits[s-uint(g.firstHit)])
		}
	}
	return hit
}
