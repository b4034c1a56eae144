package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"harassrepro/internal/corpus"
)

// naiveAnd intersects via Contains, the trivially-correct oracle.
func naiveAnd(a, b *Bitmap) []uint32 {
	var out []uint32
	a.Iterate(func(v uint32) bool {
		if b.Contains(v) {
			out = append(out, v)
		}
		return true
	})
	return out
}

func values(b *Bitmap) []uint32 {
	var out []uint32
	b.Iterate(func(v uint32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// TestBitmapAndDifferential crosses sparse (array) and dense (bitmap)
// containers in every pairing — array∩array, array∩bitmap,
// bitmap∩bitmap — plus disjoint key ranges, and checks And against the
// Contains oracle.
func TestBitmapAndDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	build := func(n int, span, offset uint32) *Bitmap {
		b := &Bitmap{}
		for i := 0; i < n; i++ {
			b.Add(offset + rng.Uint32()%span)
		}
		return b
	}
	cases := []struct {
		name string
		a, b *Bitmap
	}{
		{"array-array", build(500, 1<<17, 0), build(500, 1<<17, 0)},
		{"array-bitmap", build(500, 1<<16, 0), build(20000, 1<<16, 0)},
		{"bitmap-array", build(20000, 1<<16, 0), build(500, 1<<16, 0)},
		{"bitmap-bitmap", build(20000, 1<<16, 0), build(20000, 1<<16, 0)},
		{"disjoint-keys", build(500, 1<<16, 0), build(500, 1<<16, 1<<20)},
		{"empty-side", build(500, 1<<16, 0), &Bitmap{}},
		{"multi-container", build(3000, 1<<19, 0), build(3000, 1<<19, 1<<16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := naiveAnd(tc.a, tc.b)
			got := values(tc.a.And(tc.b))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("And: got %d values, want %d", len(got), len(want))
			}
			// Commutes.
			rev := values(tc.b.And(tc.a))
			if !reflect.DeepEqual(want, rev) {
				t.Fatalf("And is not commutative: %d vs %d values", len(rev), len(want))
			}
			// Operands untouched.
			if c := tc.a.Cardinality(); len(values(tc.a)) != c {
				t.Fatalf("left operand mutated")
			}
			// Result supports Contains (container invariants hold).
			res := tc.a.And(tc.b)
			for _, v := range want {
				if !res.Contains(v) {
					t.Fatalf("result missing %d", v)
				}
			}
		})
	}
	if got := values((&Bitmap{}).And(nil)); got != nil {
		t.Fatalf("nil And = %v, want empty", got)
	}
}

// TestBitmapAndDenseResultStaysDense checks the container kind of the
// intersection: two dense containers overlapping in > arrayMax values
// must stay a bitmap container; a small overlap must collapse to an
// array container.
func TestBitmapAndDenseResultStaysDense(t *testing.T) {
	a, b := &Bitmap{}, &Bitmap{}
	for v := uint32(0); v < 10000; v++ {
		a.Add(v)
		b.Add(v + 2000) // overlap [2000,10000) = 8000 > arrayMax
	}
	res := a.And(b)
	if n := res.Cardinality(); n != 8000 {
		t.Fatalf("dense overlap cardinality = %d, want 8000", n)
	}
	if res.containers[0].bits == nil {
		t.Fatal("8000-value intersection collapsed to an array container")
	}
	// Shift the overlap below the threshold: must come back as array.
	c := &Bitmap{}
	for v := uint32(9000); v < 19000; v++ {
		c.Add(v)
	}
	res = a.And(c) // overlap [9000,10000) = 1000 <= arrayMax
	if n := res.Cardinality(); n != 1000 {
		t.Fatalf("sparse overlap cardinality = %d, want 1000", n)
	}
	if res.containers[0].bits != nil {
		t.Fatal("1000-value intersection kept a bitmap container")
	}
}

// TestLookupAllMatchesNaiveScan differentially tests multi-token AND
// lookup: for token pairs and triples drawn from the corpus, an all-AND
// query must return exactly the refs a full scan + retokenize finds in
// every posting list.
func TestLookupAllMatchesNaiveScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The default testDocs text already repeats "report" and "channel"
	// everywhere, so the interesting overrides use tokens that appear
	// nowhere else.
	docs := testDocs(12, "la-")
	docs[2].Text = "flagging brigade incoming tonight"
	docs[5].Text = "brigade mustering tonight"
	docs[8].Text = "flagging the mods tonight"
	docs[9].Text = "unrelated pastoral interlude"
	if err := s.AppendAll(docs, 4); err != nil { // several segments
		t.Fatal(err)
	}

	// Oracle: per-doc token sets via scan.
	type docTokens struct {
		ref  DocRef
		toks map[string]bool
	}
	var scanned []docTokens
	if err := s.Scan(func(d *corpus.Document, ref DocRef) error {
		toks := map[string]bool{}
		indexTokens(d, func(tok string) { toks[tok] = true })
		scanned = append(scanned, docTokens{ref, toks})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	oracle := func(tokens ...string) []DocRef {
		var refs []DocRef
		for _, dt := range scanned {
			all := true
			for _, tok := range tokens {
				if !dt.toks[NormalizeToken(tok)] {
					all = false
					break
				}
			}
			if all {
				refs = append(refs, dt.ref)
			}
		}
		return refs
	}
	lookupAll := func(tokens ...string) []DocRef {
		q, err := ParseQuery(strings.Join(tokens, ","))
		if err != nil {
			t.Fatal(err)
		}
		var refs []DocRef
		s.LookupQuery(q, func(ref DocRef) bool {
			refs = append(refs, ref)
			return true
		})
		return refs
	}

	queries := [][]string{
		{"flagging", "tonight"},            // docs 2 and 8, across segments
		{"brigade", "tonight"},             // docs 2 and 5
		{"flagging", "brigade", "tonight"}, // only doc 2
		{"TONIGHT", "Flagging"},            // case folding
		{"dataset:boards", "brigade"},      // field term AND text term
		{"channel"},                        // single token
		{"channel", "no-such-token-q9z"},   // absent token kills everything
		{"pastoral", "interlude"},
	}
	for _, q := range queries {
		want, got := oracle(q...), lookupAll(q...)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("AND lookup %v = %v, want %v", q, got, want)
		}
	}
	// Sanity: the interesting queries actually match something.
	if len(lookupAll("flagging", "brigade", "tonight")) != 1 {
		t.Fatal("triple-AND query should match exactly doc 2")
	}
	if len(lookupAll("flagging", "tonight")) != 2 {
		t.Fatal("flagging AND tonight should span segments")
	}

	// Early stop.
	channel, err := ParseQuery("channel")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	s.LookupQuery(channel, func(DocRef) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d refs, want 1", n)
	}

	// The same AND as a query fetches the matching documents in store
	// order.
	and, err := ParseQuery("flagging,tonight")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	if err := s.LookupQueryDocs(and, func(d *corpus.Document, _ DocRef) error {
		ids = append(ids, d.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{docs[2].ID, docs[8].ID}) {
		t.Fatalf("LookupQueryDocs ids = %v", ids)
	}
	// Callback errors propagate.
	boom := fmt.Errorf("boom")
	if err := s.LookupQueryDocs(channel, func(*corpus.Document, DocRef) error {
		return boom
	}); err != boom {
		t.Fatalf("LookupQueryDocs error = %v, want boom", err)
	}
}
