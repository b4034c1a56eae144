package pii

// The literal gates for PII extraction. The twelve extractor families
// are precise but expensive, and the overwhelming majority of streamed
// documents (§5.6 runs the extractors over every collected message)
// contain no PII at all. Each family only ever matches when certain
// fixed byte literals are present — an address needs a digit and a
// street suffix, an email needs '@' and '.', a profile URL needs its
// host name — so one linear scan that records which literals occur
// lets clean documents skip every family without changing any output.
//
// The scan itself lives in the one-pass engine's Teddy-style
// multi-literal prefilter (internal/pii/engine): all gate literals are
// matched simultaneously by a bit-parallel Shift-And automaton over an
// ASCII-lowered view of the text, alongside the digit count/runs and
// tracked-literal events the engine's candidate enumeration consumes.
// The only non-ASCII characters Go's (?i) simple case folding maps
// onto ASCII letters — U+017F (long s -> 's') and U+212A (Kelvin sign
// -> 'k') — are folded by hand so a regex can never match where the
// scanner saw nothing. All other non-ASCII bytes reset the automaton;
// they cannot occur inside any literal.
//
// Gates are conservative by construction: every gate is a *necessary*
// condition for its regex family, never an exact one, so a gated
// Extract is always a superset-safe rewrite of running the regexes
// directly. FuzzExtractPrefilterEquivalence holds the two paths equal.

// Literal registration: lit interns a literal and returns its bitmask;
// masks combine into anyOf-groups below.
var (
	acLiterals []string
	acMaskOf   = map[string]uint64{}
)

func lit(s string) uint64 {
	if m, ok := acMaskOf[s]; ok {
		return m
	}
	if len(acLiterals) >= 64 {
		panic("pii: more than 64 prefilter literals")
	}
	m := uint64(1) << uint(len(acLiterals))
	acLiterals = append(acLiterals, s)
	acMaskOf[s] = m
	return m
}

func anyOf(ss ...string) uint64 {
	var m uint64
	for _, s := range ss {
		m |= lit(s)
	}
	return m
}

// plan is one PII family's literal gate. groups is a conjunction of
// anyOf-masks — every group must have at least one literal present —
// and minDigits bounds the document's ASCII digit count from below.
type plan struct {
	name      string
	groups    []uint64
	minDigits int
}

// plans holds the families' gates in the fixed legacy Extract order
// (address, cards, email, facebook, instagram, phone, ssn, twitter,
// youtube), which is also the engine's type-index order (spec.go).
var plans []plan

func init() {
	streetSuffix := anyOf(
		"street", "st", "avenue", "ave", "road", "rd", "boulevard", "blvd",
		"drive", "dr", "lane", "ln", "court", "ct", "circle", "cir", "way",
		"place", "pl", "terrace", "ter",
	)
	// For the handle families, a URL match implies its host literal and a
	// mention match implies a site name plus ':'. Since each ".com" host
	// literal contains the bare site name, the disjunction
	// (url-match OR mention-match) relaxes to the two groups below.
	plans = []plan{
		{name: "address", groups: []uint64{streetSuffix}, minDigits: 1},
		// Shortest card format is Amex's 15 digits.
		{name: "cards", minDigits: 15},
		{name: "email", groups: []uint64{lit("@"), lit(".")}},
		{name: "facebook", groups: []uint64{anyOf("facebook", "fb"), anyOf("facebook.com", ":")}},
		{name: "instagram", groups: []uint64{anyOf("instagram", "ig", "insta"), anyOf("instagram.com", ":")}},
		{name: "phone", minDigits: 10},
		{name: "ssn", groups: []uint64{lit("-")}, minDigits: 9},
		{name: "twitter", groups: []uint64{anyOf("twitter", "twtr"), anyOf("twitter.com", ":")}},
		{name: "youtube", groups: []uint64{anyOf("youtube", "yt"), anyOf("youtube.com", ":")}},
	}
	eng = buildEngine()
}
