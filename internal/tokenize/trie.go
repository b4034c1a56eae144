package tokenize

import (
	"math/bits"
	"sort"
	"unicode/utf8"
)

// pieceTrie is the vocabulary as a byte trie, so WordPiece's greedy
// longest-match-first search is one left-to-right walk over the word
// instead of one map probe per candidate length (most of them misses).
// Continuation pieces live under the "##" node: a walk for a non-initial
// piece starts there. Beside it sits a hash table of the pieces an
// ASCII word can equal, so a word that is a piece costs one probe.
//
// The walk is byte-wise while the map search stepped by runes. They
// agree because only valid UTF-8 pieces are inserted and words are valid
// UTF-8 (ASCII, or re-encoded rune by rune by BasicTokenizer), so a
// piece that matches a word's bytes ends on one of its rune boundaries;
// a piece that is not valid UTF-8 can never equal a run of whole runes,
// so the map search could never return it either.
type pieceTrie struct {
	nodes []trieNode
	edges []trieEdge // each node's children, contiguous and sorted by byte
	// first holds the children of the two roots — the trie root for a
	// word's first piece, the "##" node for the rest — as dense tables:
	// the roots branch on nearly every byte a word can start with, so a
	// scan of their edges would be the walk's longest step.
	first [2][256]int32
	// words is an open-addressing table, at most half full, of the nodes
	// whose piece an ASCII word can equal, at the top bits of the
	// piece's FNV-1a hash; node 0 (the root, which holds no piece) marks
	// a free slot.
	words     []wordSlot
	wordShift uint32 // 32 - log2(len(words))
}

type wordSlot struct {
	hash uint32
	node int32
}

// 32-bit FNV-1a, the whole-word table's hash.
const (
	fnv32Offset uint32 = 2166136261
	fnv32Prime  uint32 = 16777619
)

type trieNode struct {
	edges, n int32  // edges[edges : edges+n]
	piece    string // interned piece ending here, "" for none
}

type trieEdge struct {
	b     byte
	child int32
}

// newPieceTrie builds the trie over a vocabulary's interned pieces, and
// the whole-word table over those of at most maxWordChars bytes that
// are one ASCII punctuation mark or a run of lower-case ASCII word
// bytes: the only words the fused ASCII path produces.
func newPieceTrie(v *Vocab, maxWordChars int) *pieceTrie {
	pieces := make([]string, 0, len(v.pieces))
	for _, p := range v.pieces {
		if p != "" && utf8.ValidString(p) {
			pieces = append(pieces, p)
		}
	}
	sort.Strings(pieces)
	t := &pieceTrie{}
	t.add(pieces, 0)
	for kind, root := range [2]int32{0, t.walk(0, ContinuationPrefix)} {
		for b := range t.first[kind] {
			t.first[kind][b] = -1
			if root >= 0 {
				t.first[kind][b] = t.child(root, byte(b))
			}
		}
	}
	t.indexWords(pieces, maxWordChars)
	return t
}

// indexWords fills the whole-word table from the trie's sorted pieces.
func (t *pieceTrie) indexWords(pieces []string, maxWordChars int) {
	var words []string
	for _, p := range pieces {
		if len(p) <= maxWordChars && asciiWord(p) {
			words = append(words, p)
		}
	}
	size := 2
	for size < 2*len(words) {
		size *= 2
	}
	t.words = make([]wordSlot, size)
	t.wordShift = uint32(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for _, p := range words {
		h := fnv32Offset
		for i := 0; i < len(p); i++ {
			h = (h ^ uint32(p[i])) * fnv32Prime
		}
		slot := h >> t.wordShift
		for t.words[slot].node != 0 {
			slot = (slot + 1) & mask
		}
		t.words[slot] = wordSlot{hash: h, node: t.walk(0, p)}
	}
}

// asciiWord reports whether p is one ASCII punctuation mark or a run of
// lower-case ASCII word bytes.
func asciiWord(p string) bool {
	if len(p) == 1 && p[0] < utf8.RuneSelf && asciiClass[p[0]] == classPunct {
		return true
	}
	for i := 0; i < len(p); i++ {
		if c := p[i]; c >= utf8.RuneSelf || asciiClass[c] != classWord || lowerASCII[c] != c {
			return false
		}
	}
	return true
}

// whole returns the piece equal to ASCII word lowered, given the FNV-1a
// hash h of its lowered bytes, and whether there is one.
func (t *pieceTrie) whole(word string, h uint32) (string, bool) {
	mask := uint32(len(t.words) - 1)
	for slot := h >> t.wordShift; ; slot = (slot + 1) & mask {
		e := t.words[slot]
		if e.node == 0 {
			return "", false
		}
		if p := t.nodes[e.node].piece; e.hash == h && len(p) == len(word) {
			i := 0
			for i < len(p) && p[i] == lowerASCII[word[i]] {
				i++
			}
			if i == len(p) {
				return p, true
			}
		}
	}
}

// add inserts pieces — sorted, distinct, all sharing their first depth
// bytes — as the subtree of a new node and returns that node.
func (t *pieceTrie) add(pieces []string, depth int) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, trieNode{})
	if len(pieces) > 0 && len(pieces[0]) == depth {
		t.nodes[id].piece = pieces[0]
		pieces = pieces[1:]
	}
	// Reserve the node's edges first so they stay contiguous, then build
	// each child's subtree.
	first := int32(len(t.edges))
	for i := 0; i < len(pieces); i = nextGroup(pieces, i, depth) {
		t.edges = append(t.edges, trieEdge{b: pieces[i][depth]})
	}
	t.nodes[id].edges, t.nodes[id].n = first, int32(len(t.edges))-first
	e := first
	for i := 0; i < len(pieces); {
		j := nextGroup(pieces, i, depth)
		t.edges[e].child = t.add(pieces[i:j], depth+1)
		e++
		i = j
	}
	return id
}

// nextGroup returns the end of the run of pieces from i that share byte
// depth.
func nextGroup(pieces []string, i, depth int) int {
	j := i + 1
	for j < len(pieces) && pieces[j][depth] == pieces[i][depth] {
		j++
	}
	return j
}

// child returns node's child along b, or -1.
func (t *pieceTrie) child(node int32, b byte) int32 {
	nd := &t.nodes[node]
	for _, e := range t.edges[nd.edges : nd.edges+nd.n] {
		if e.b == b {
			return e.child
		}
	}
	return -1
}

// walk follows s from node and returns the node reached, or -1.
func (t *pieceTrie) walk(node int32, s string) int32 {
	for i := 0; i < len(s) && node >= 0; i++ {
		node = t.child(node, s[i])
	}
	return node
}

// longest returns the longest piece that s (non-empty) lowered starts
// with, and its length in bytes: an initial piece, or with cont a
// continuation piece (its "##" not counted). ok is false when there is
// none.
func (t *pieceTrie) longest(s string, cont bool) (piece string, n int, ok bool) {
	kind := 0
	if cont {
		kind = 1
	}
	for i, node := 0, t.first[kind][lowerASCII[s[0]]]; node >= 0; {
		if p := t.nodes[node].piece; p != "" {
			piece, n, ok = p, i+1, true
		}
		if i++; i == len(s) {
			break
		}
		node = t.child(node, lowerASCII[s[i]])
	}
	return piece, n, ok
}
