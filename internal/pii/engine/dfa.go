package engine

// A lazy multi-pattern DFA over the digit-bearing pattern families
// (phone, SSN, the four card networks). It answers one question per
// digit region of a document: which of those patterns have at least
// one match inside the region. Candidate enumeration + the exact
// backtracker then run only for families the DFA admits, so a
// pathological digit wall that matches nothing costs one DFA pass in
// O(n) table lookups instead of per-candidate backtracking for every
// family.
//
// Construction is classic lazy determinization: a DFA state is the
// set of NFA positions parked on character instructions (encoded
// compactly and interned), transitions are computed on first use per
// (state, byte-class) and cached, and accept bits are recorded on the
// transition (a pattern accepts while resolving zero-width
// instructions between two bytes, so acceptance belongs to the edge,
// not the node). \b is resolved exactly by folding the previous
// byte's wordness into state identity and the next byte's wordness
// into the byte class. The cache is bounded: if determinization ever
// exceeds maxDFAStates the whole cache is flushed and the in-flight
// state re-interned, preserving the scan position (never restarting
// the region), so adversarial inputs degrade to re-determinization,
// never to wrong answers or unbounded memory.

// maxDFAStates bounds the per-session transition cache.
const maxDFAStates = 512

// DFA is the immutable compiled half, shared by all sessions.
type DFA struct {
	progs   []*Program
	classOf [256]uint8
	rep     []byte // representative input byte per class
	isWordC []bool // wordness per class
	nclass  int
}

// NewDFA compiles the byte-class alphabet for the given programs.
// Pattern i's matches are reported as bit i of the accept mask.
func NewDFA(progs []*Program) *DFA {
	if len(progs) > 16 {
		panic("engine: too many DFA patterns")
	}
	d := &DFA{progs: progs}
	// Fingerprint each byte by its membership across every distinct
	// class in every program, plus ASCII wordness; equal fingerprints
	// share a byte class.
	type fp struct {
		bits uint64
		word bool
	}
	fps := make([]fp, 256)
	seen := map[[2]uint64]bool{}
	nc := 0
	for _, p := range progs {
		for i := range p.insts {
			if p.insts[i].op != opClass {
				continue
			}
			cls := &p.insts[i].cls
			if seen[cls.bits] {
				continue
			}
			seen[cls.bits] = true
			if nc >= 64 {
				panic("engine: too many distinct DFA classes")
			}
			for b := 0; b < 128; b++ {
				if cls.has(byte(b)) {
					fps[b].bits |= 1 << uint(nc)
				}
			}
			nc++
		}
	}
	for b := 0; b < 256; b++ {
		fps[b].word = b < 128 && isWordByte(byte(b))
	}
	assigned := map[fp]uint8{}
	for b := 0; b < 256; b++ {
		id, ok := assigned[fps[b]]
		if !ok {
			id = uint8(len(d.rep))
			assigned[fps[b]] = id
			d.rep = append(d.rep, byte(b))
			d.isWordC = append(d.isWordC, fps[b].word)
		}
		d.classOf[b] = id
	}
	d.nclass = len(d.rep)
	return d
}

// pcKey packs (pattern, pc) into one uint16 for state-set encoding.
func pcKey(pid, pc int32) uint16 { return uint16(pid)<<11 | uint16(pc) }

// dfaRun is the mutable per-session half: the bounded state cache.
type dfaRun struct {
	d     *DFA
	ids   map[string]int32
	sets  [][]uint16 // parked NFA set per state (prevW excluded)
	prevW []bool     // prevW flag per state
	next  [][]int32  // transition table, -1 = not yet computed
	acc   [][]uint16 // accept mask per transition
	gen   int        // bumped on every flush
	// scratch for closure
	work    []uint16
	parked  []uint16
	visited []int32
	epoch   int32
	keyBuf  []byte
}

func newDFARun(d *DFA) *dfaRun {
	r := &dfaRun{d: d}
	r.reset()
	return r
}

// reset flushes the entire state cache.
func (r *dfaRun) reset() {
	r.gen++
	r.ids = make(map[string]int32, 64)
	r.sets = r.sets[:0]
	r.prevW = r.prevW[:0]
	r.next = r.next[:0]
	r.acc = r.acc[:0]
}

// intern returns the state id for (set, prevW), creating it if new.
// set must be sorted and deduplicated.
func (r *dfaRun) intern(set []uint16, prevW bool) int32 {
	r.keyBuf = r.keyBuf[:0]
	if prevW {
		r.keyBuf = append(r.keyBuf, 1)
	} else {
		r.keyBuf = append(r.keyBuf, 0)
	}
	for _, k := range set {
		r.keyBuf = append(r.keyBuf, byte(k), byte(k>>8))
	}
	if id, ok := r.ids[string(r.keyBuf)]; ok {
		return id
	}
	if len(r.sets) >= maxDFAStates {
		// Bounded cache: flush everything and re-intern just this
		// state so the caller's scan position survives.
		r.reset()
	}
	id := int32(len(r.sets))
	r.ids[string(r.keyBuf)] = id
	r.sets = append(r.sets, append([]uint16(nil), set...))
	r.prevW = append(r.prevW, prevW)
	nt := make([]int32, r.d.nclass)
	for i := range nt {
		nt[i] = -1
	}
	r.next = append(r.next, nt)
	r.acc = append(r.acc, make([]uint16, r.d.nclass))
	return id
}

// seen reports (and records) whether (pid,pc) was visited this epoch.
func (r *dfaRun) seen(k uint16) bool {
	for int(k) >= len(r.visited) {
		r.visited = append(r.visited, 0)
	}
	if r.visited[k] == r.epoch {
		return true
	}
	r.visited[k] = r.epoch
	return false
}

// step computes (or fetches) the transition from state id on byte
// class cl, returning the next state id and the accept mask for
// matches completing on this edge.
func (r *dfaRun) step(id int32, cl uint8) (int32, uint16) {
	if n := r.next[id][cl]; n >= 0 {
		return n, r.acc[id][cl]
	}
	d := r.d
	before := r.prevW[id]
	b := d.rep[cl]
	after := d.isWordC[cl]

	r.epoch++
	r.work = r.work[:0]
	r.parked = r.parked[:0]
	// Seed: the parked set, plus an unanchored start injection for
	// every pattern at the current position.
	src := r.sets[id]
	for _, k := range src {
		r.work = append(r.work, k)
	}
	for pid := range d.progs {
		r.work = append(r.work, pcKey(int32(pid), 0))
	}
	var accept uint16
	// Closure: resolve zero-width instructions with (before, after),
	// consume b at character instructions, park survivors at their
	// next pc for the following byte.
	for len(r.work) > 0 {
		k := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if r.seen(k) {
			continue
		}
		pid, pc := int32(k>>11), int32(k&0x7ff)
		in := &d.progs[pid].insts[pc]
		switch in.op {
		case opClass:
			if in.cls.has(b) {
				r.parked = append(r.parked, pcKey(pid, pc+1))
			}
		case opSplit:
			r.work = append(r.work, pcKey(pid, in.y), pcKey(pid, in.x))
		case opJmp:
			r.work = append(r.work, pcKey(pid, in.x))
		case opBound:
			if before != after {
				r.work = append(r.work, pcKey(pid, pc+1))
			}
		case opSaveS, opSaveE:
			r.work = append(r.work, pcKey(pid, pc+1))
		case opMatch:
			accept |= 1 << uint(pid)
		}
	}
	sortU16(r.parked)
	r.parked = dedupU16(r.parked)
	// intern may flush the whole cache (bounded-size eviction), which
	// invalidates id's row; only cache the edge if no flush happened.
	gen := r.gen
	nid := r.intern(r.parked, after)
	if r.gen == gen {
		r.next[id][cl] = nid
		r.acc[id][cl] = accept
	}
	return nid, accept
}

// ScanRegion runs the DFA over text[lo:hi) and returns the mask of
// patterns with at least one match wholly inside the region
// (boundary context taken from the surrounding bytes).
func (r *dfaRun) ScanRegion(text string, lo, hi int32) uint16 {
	prevW := false
	if lo > 0 {
		prevW = isWordByte(text[lo-1])
	}
	r.parked = r.parked[:0]
	id := r.intern(r.parked, prevW)
	var mask uint16
	for i := lo; i < hi; i++ {
		nid, acc := r.step(id, r.d.classOf[text[i]])
		mask |= acc
		id = nid
	}
	// One finalization edge resolves trailing \b for matches ending
	// exactly at hi. Byte 0 is a safe end-of-text sentinel: non-word
	// and in no pattern class.
	var sentinel byte
	if int(hi) < len(text) {
		sentinel = text[hi]
	}
	_, acc := r.step(id, r.d.classOf[sentinel])
	return mask | acc
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func dedupU16(s []uint16) []uint16 {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
