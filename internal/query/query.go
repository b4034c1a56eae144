// Package query implements the conjunctive keyword-query engine used to
// bootstrap the call-to-harassment annotation pool (§5.1). It evaluates
// SQL-like queries of the form used in Figure 4: a disjunctive clause of
// mobilizing-language phrases AND a disjunctive subclause of in-group
// versus target language, each term matched case-insensitively against
// the document body (the REGEXP_CONTAINS(LOWER(body), '\Q...\E')
// semantics of the original BigQuery query: literal substring matching
// over the lowercased text).
package query

import (
	"strings"
)

// Clause is a disjunction of literal phrases: it matches a document when
// any phrase occurs as a substring of the lowercased body.
type Clause []string

// Query is a conjunction of clauses: a document matches when every
// clause matches. Build one with New, Figure4 or WithAttackTerms; the
// zero Query matches nothing.
type Query struct {
	clauses []Clause // phrases already lowercased
}

// New returns the conjunction of the clauses. Phrases are lowercased
// here, once, so matching is case-insensitive without touching them
// again per document.
func New(clauses ...Clause) Query {
	q := Query{clauses: make([]Clause, len(clauses))}
	for i, c := range clauses {
		q.clauses[i] = make(Clause, len(c))
		for j, phrase := range c {
			q.clauses[i][j] = strings.ToLower(phrase)
		}
	}
	return q
}

// Match reports whether the document body matches the query. The
// Figure 4 phrases anchor on a leading space; so that they also match
// the first word of a document, a phrase that starts with a space
// matches a body that starts with the rest of it (equivalent to padding
// the body with a leading space, without building the padded string).
func (q Query) Match(body string) bool {
	lower := strings.ToLower(body)
	for _, c := range q.clauses {
		if !c.match(lower) {
			return false
		}
	}
	return len(q.clauses) > 0
}

// match reports whether any (lowercased) phrase occurs in the
// lowercased body or, for a space-anchored phrase, starts it.
func (c Clause) match(lowerBody string) bool {
	for _, phrase := range c {
		if strings.Contains(lowerBody, phrase) {
			return true
		}
		if phrase != "" && phrase[0] == ' ' && strings.HasPrefix(lowerBody, phrase[1:]) {
			return true
		}
	}
	return false
}

// Figure4 returns the exact seed query from the paper's appendix: a
// mobilizing-language clause AND an in-group-versus-target subclause.
func Figure4() Query {
	return New(
		Clause{ // First clause: contains mobilizing language.
			" we need to", " we should", " lets", " we have", " we will", " we",
		},
		Clause{ // Subclause: in-group mobilizing language vs target.
			" them", " him", " her", " all", " entire",
		},
	)
}

// WithAttackTerms narrows a query with a third clause of call-to-
// harassment terms ("a clause for specific text related to calls to
// harassment, such as 'doxxing', 'raiding', and 'reporting'", §5.1).
func WithAttackTerms(q Query, terms ...string) Query {
	if len(terms) == 0 {
		terms = []string{"dox", "raid", "report", "spam", "flag", "brigade", "swat"}
	}
	attack := New(Clause(terms))
	return Query{clauses: append(append([]Clause(nil), q.clauses...), attack.clauses...)}
}
