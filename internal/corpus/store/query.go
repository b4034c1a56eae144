package store

import (
	"fmt"
	"sort"
	"strings"

	"harassrepro/internal/corpus"
)

// Query is a parsed boolean token query over the inverted index.
//
// The surface syntax (shared by the cthdetect/piiscan -token flags):
// comma-separated clauses are ANDed; within a clause, |-separated
// alternatives are ORed; a clause of the form -term excludes documents
// whose terms include term. So
//
//	dataset:gab,dox|doxx,-paste
//
// matches gab documents containing "dox" or "doxx" but not "paste".
// At least one positive clause is required (pure negation would match
// the whole store), and negation inside an OR group is rejected.
type Query struct {
	clauses [][]string // ANDed; each inner slice is OR alternatives
	not     []string   // excluded terms
}

// ParseQuery parses the boolean query syntax above. Terms are
// normalized the same way the index normalizes them (NormalizeToken),
// so dataset:/platform:/domain: field terms work in any clause.
func ParseQuery(spec string) (*Query, error) {
	q := &Query{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if alts := strings.Split(part, "|"); len(alts) > 1 {
			clause := make([]string, 0, len(alts))
			for _, alt := range alts {
				alt = strings.TrimSpace(alt)
				if alt == "" {
					return nil, fmt.Errorf("store: query %q: empty alternative in %q", spec, part)
				}
				if strings.HasPrefix(alt, "-") {
					return nil, fmt.Errorf("store: query %q: negation %q not allowed inside an OR group", spec, alt)
				}
				clause = append(clause, NormalizeToken(alt))
			}
			q.clauses = append(q.clauses, clause)
			continue
		}
		if rest, ok := strings.CutPrefix(part, "-"); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				return nil, fmt.Errorf("store: query %q: empty negation", spec)
			}
			q.not = append(q.not, NormalizeToken(rest))
			continue
		}
		q.clauses = append(q.clauses, []string{NormalizeToken(part)})
	}
	if len(q.clauses) == 0 {
		return nil, fmt.Errorf("store: query %q needs at least one positive term", spec)
	}
	return q, nil
}

// String renders the query back in its surface syntax.
func (q *Query) String() string {
	var parts []string
	for _, clause := range q.clauses {
		parts = append(parts, strings.Join(clause, "|"))
	}
	for _, tok := range q.not {
		parts = append(parts, "-"+tok)
	}
	return strings.Join(parts, ",")
}

// eval resolves the query against one segment's index, returning the
// matching ordinals (nil when nothing matches). Clause unions build
// with Bitmap.Or, the cross-clause intersection runs rarest-first so
// the working set only ever shrinks, and negations subtract last with
// Bitmap.AndNot — all pure bitmap algebra, no documents decoded.
func (q *Query) eval(ix *segIndex) *Bitmap {
	clauseBMs := make([]*Bitmap, len(q.clauses))
	for i, clause := range q.clauses {
		var bm *Bitmap
		for _, tok := range clause {
			p := ix.lookup(tok)
			if p == nil {
				continue
			}
			if bm == nil && len(clause) == 1 {
				bm = p // single-alternative clause: no union needed
			} else {
				bm = bm.Or(p)
			}
		}
		if bm == nil || len(bm.containers) == 0 {
			return nil
		}
		clauseBMs[i] = bm
	}
	sort.Slice(clauseBMs, func(i, j int) bool {
		return clauseBMs[i].Cardinality() < clauseBMs[j].Cardinality()
	})
	out := clauseBMs[0]
	for _, bm := range clauseBMs[1:] {
		out = out.And(bm)
		if len(out.containers) == 0 {
			return nil
		}
	}
	for _, tok := range q.not {
		if p := ix.lookup(tok); p != nil {
			out = out.AndNot(p)
			if len(out.containers) == 0 {
				return nil
			}
		}
	}
	return out
}

// LookupQueryDocs streams every document matching q to fn, in store
// order, with the same error contract as LookupDocs (see
// fetchMatches); on a closed store it returns ErrClosed. As with Scan,
// the *Document passed to fn is reused and valid only until fn
// returns; its strings are owned and outlive Close.
func (s *Store) LookupQueryDocs(q *Query, fn func(d *corpus.Document, ref DocRef) error) error {
	return s.fetchMatches(func() string { return "query " + q.String() }, q.eval, fn)
}
