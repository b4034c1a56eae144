// Package pii implements the paper's 12 regular-expression extractors for
// personally identifiable information in doxes and calls to harassment
// (§5.6): US street addresses, per-network credit card numbers, email
// addresses, Facebook profiles, Instagram profiles, US phone numbers, US
// Social Security Numbers, Twitter handles, and YouTube channels.
//
// Following the paper, the extractors are optimised for precision: only US
// formats are detected for phones, addresses and SSNs; credit cards use a
// separate pattern per card network (validated with the Luhn checksum);
// and social-media extractors combine profile-URL patterns (with reserved
// path stoplists) and "site: username"-style mentions constrained by each
// platform's username rules.
//
// The patterns run compiled into one pass of internal/pii/engine
// (spec.go). The same twelve patterns as Go regexps, run one after
// another, are kept in the tests (oracle_test.go) as the differential
// oracle the engine must match.
package pii

// Type identifies a category of personally identifiable information.
type Type string

// The PII types extracted by the pipeline, matching Table 6's rows.
const (
	Address    Type = "address"
	CreditCard Type = "card"
	Email      Type = "email"
	Facebook   Type = "facebook"
	Instagram  Type = "instagram"
	Phone      Type = "phone"
	SSN        Type = "ssn"
	Twitter    Type = "twitter"
	YouTube    Type = "youtube"
)

// AllTypes lists every extractable PII type in Table 6 order.
func AllTypes() []Type {
	return []Type{Address, CreditCard, Email, Facebook, Instagram, Phone, SSN, Twitter, YouTube}
}

// Match is one extracted PII instance.
type Match struct {
	Type  Type
	Value string // normalised matched text
}

// reservedPaths holds per-platform path components that follow the same
// URL shape as user profiles but are site functionality, not accounts —
// the paper's "stopwords ... reserved for site functionalities".
var reservedPaths = map[Type]map[string]bool{
	Facebook: toSet("marketplace", "groups", "events", "pages", "watch",
		"gaming", "stories", "photos", "settings", "login", "sharer",
		"profile.php", "help", "policies", "privacy", "business"),
	Instagram: toSet("explore", "accounts", "about", "developer", "reels",
		"stories", "direct", "legal", "p"),
	Twitter: toSet("home", "explore", "search", "notifications", "messages",
		"settings", "i", "intent", "share", "hashtag", "login", "signup",
		"privacy", "tos", "following", "followers"),
	YouTube: toSet("watch", "results", "playlist", "feed", "shorts",
		"premium", "gaming", "music", "about", "ads", "creators", "t",
		"embed", "live"),
}

func toSet(items ...string) map[string]bool {
	m := make(map[string]bool, len(items))
	for _, it := range items {
		m[it] = true
	}
	return m
}

// Extractor extracts PII matches from text. Extractors are stateless
// unless metrics are attached (see SetMetrics in obs.go); a zero-value
// Extractor is ready to use.
type Extractor struct {
	m *extractorMetrics
}

// NewExtractor returns a ready-to-use Extractor. The zero value is also
// usable; the constructor exists for API symmetry and future options.
func NewExtractor() *Extractor { return &Extractor{} }

// Extract returns all PII matches in text, de-duplicated per (type,
// normalised value), in deterministic order.
//
// Extraction runs on the one-pass engine (internal/pii/engine): a
// Teddy-style multi-literal prefilter classifies the document and
// yields candidate windows in a single scan, a lazy DFA gates the
// digit families per digit region, and an exact backtracker extracts
// spans with the legacy verify steps (Luhn, NANP, SSA ranges, handle
// stoplists). Output is byte-identical to running every legacy regex
// unconditionally (the tests' extractDirect, fuzz-verified). Documents without
// PII cost a single linear pass and no allocations.
func (e *Extractor) Extract(text string) []Match {
	s := sessionPool.Get().(*Session)
	spans := s.es.Extract(text)
	var out []Match
	if len(spans) > 0 {
		out = make([]Match, len(spans))
		for i := range spans {
			out[i] = Match{Type: typeOfIndex[spans[i].Type], Value: string(spans[i].Value)}
		}
	}
	e.record(&s.es.Stats)
	sessionPool.Put(s)
	return out
}

// Types returns the distinct PII types present in text, in Table 6 order.
func (e *Extractor) Types(text string) []Type {
	return e.AppendTypes(nil, text)
}

// AppendTypes appends the distinct PII types present in text to dst,
// in Table 6 order. Allocation-free when dst has capacity (at most
// len(AllTypes()) entries are ever appended).
func (e *Extractor) AppendTypes(dst []Type, text string) []Type {
	s := sessionPool.Get().(*Session)
	dst = s.AppendTypes(dst, text)
	e.record(&s.es.Stats)
	sessionPool.Put(s)
	return dst
}

// LuhnChecksumDigit returns the check digit that makes payload+digit pass
// the Luhn test. Used by the synthetic data generator to mint valid (but
// fictional) card numbers.
func LuhnChecksumDigit(payload string) byte {
	sum := 0
	double := true
	for i := len(payload) - 1; i >= 0; i-- {
		d := int(payload[i] - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return byte('0' + (10-sum%10)%10)
}
