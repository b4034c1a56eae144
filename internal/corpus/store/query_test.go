package store

import (
	"fmt"
	"reflect"
	"testing"

	"harassrepro/internal/corpus"
)

func TestParseQuery(t *testing.T) {
	good := []struct {
		spec, rendered string
	}{
		{"mass", "mass"},
		{"mass,report", "mass,report"},
		{" mass , report ,", "mass,report"},
		{"dox|doxx", "dox|doxx"},
		{"dataset:gab,dox|doxx,-paste", "dataset:gab,dox|doxx,-paste"},
		{"Mass|RAID, report", "mass|raid,report"}, // case folds like the index
		{"mass,-paste,-email", "mass,-paste,-email"},
	}
	for _, tc := range good {
		q, err := ParseQuery(tc.spec)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.spec, err)
		}
		if got := q.String(); got != tc.rendered {
			t.Fatalf("ParseQuery(%q).String() = %q, want %q", tc.spec, got, tc.rendered)
		}
	}
	bad := []string{
		"",       // no terms at all
		",, ,",   // only empty clauses
		"-paste", // pure negation matches the whole store
		"-a,-b",  // still pure negation
		"a|-b",   // negation inside an OR group
		"a| |b",  // empty OR alternative
		"mass,|", // empty alternatives
	}
	for _, spec := range bad {
		if q, err := ParseQuery(spec); err == nil {
			t.Fatalf("ParseQuery(%q) = %v, want error", spec, q)
		}
	}
}

// TestLookupQueryMatchesNaiveScan differentially tests the boolean
// query evaluator: for each query, the matching walk must return exactly the
// refs a full scan + retokenize + literal clause evaluation finds.
func TestLookupQueryMatchesNaiveScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := testDocs(12, "q-")
	docs[2].Text = "flagging brigade incoming tonight"
	docs[5].Text = "brigade mustering tonight"
	docs[8].Text = "flagging the mods tonight"
	docs[9].Text = "unrelated pastoral interlude"
	if err := s.AppendAll(docs, 4); err != nil { // several segments
		t.Fatal(err)
	}

	// Oracle: per-doc token sets via scan, then literal AND/OR/NOT.
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
	oracle := func(q *Query) []DocRef {
		var refs []DocRef
		for _, dt := range scanned {
			match := true
			for _, clause := range q.clauses {
				any := false
				for _, alt := range clause {
					if dt.toks[alt] {
						any = true
						break
					}
				}
				if !any {
					match = false
					break
				}
			}
			for _, tok := range q.not {
				if dt.toks[tok] {
					match = false
					break
				}
			}
			if match {
				refs = append(refs, dt.ref)
			}
		}
		return refs
	}
	lookup := func(q *Query) []DocRef {
		var refs []DocRef
		if err := s.eachMatch(q.eval, func(ref DocRef) bool {
			refs = append(refs, ref)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return refs
	}

	specs := []string{
		"flagging,tonight",                // plain AND, spans segments
		"flagging|brigade",                // OR across docs
		"flagging|brigade,tonight",        // OR under AND
		"tonight,-brigade",                // NOT trims the AND result
		"channel,-tonight",                // NOT over an everywhere-token
		"dataset:boards,flagging|brigade", // field term with an OR clause
		"channel,no-such-token-q9z",       // absent AND term kills all
		"no-such-a|no-such-b,channel",     // fully-absent OR clause
		"report,-channel",                 // NOT excludes everything
		"pastoral|interlude,-flagging",
	}
	matched := 0
	for _, spec := range specs {
		q, err := ParseQuery(spec)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", spec, err)
		}
		want, got := oracle(q), lookup(q)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q matched %v, want %v", spec, got, want)
		}
		matched += len(want)
	}
	if matched == 0 {
		t.Fatal("no query matched anything; the differential is vacuous")
	}
	// Sanity-pin the interesting shapes.
	mustParse := func(spec string) *Query {
		q, err := ParseQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if n := len(lookup(mustParse("flagging|brigade,tonight"))); n != 3 {
		t.Fatalf("OR-under-AND matched %d docs, want 3", n)
	}
	if n := len(lookup(mustParse("tonight,-brigade"))); n != 1 {
		t.Fatalf("NOT-trimmed query matched %d docs, want 1", n)
	}

	// Early stop.
	n := 0
	if err := s.eachMatch(mustParse("channel").eval, func(DocRef) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d refs, want 1", n)
	}

	// LookupQueryDocs fetches the matching documents in store order.
	var ids []string
	if err := s.LookupQueryDocs(mustParse("flagging|brigade,tonight"), func(d *corpus.Document, _ DocRef) error {
		ids = append(ids, d.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{docs[2].ID, docs[5].ID, docs[8].ID}) {
		t.Fatalf("LookupQueryDocs ids = %v", ids)
	}
	// Callback errors propagate unchanged.
	boom := fmt.Errorf("boom")
	if err := s.LookupQueryDocs(mustParse("channel"), func(*corpus.Document, DocRef) error {
		return boom
	}); err != boom {
		t.Fatalf("LookupQueryDocs error = %v, want boom", err)
	}
}
