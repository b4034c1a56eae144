package pii

// The differential oracle: the twelve PII extractors as plain Go
// regexps, each family run unconditionally over the whole document in
// plan order and the matches de-duplicated. Production extraction runs
// the same patterns compiled into internal/pii/engine; the fuzz and
// prefilter tests hold the two equal.

import (
	"regexp"
	"sort"
	"strings"
	"sync"

	"harassrepro/internal/pii/engine"
)

var (
	// US street address: number + street name + suffix, optionally
	// followed by a city/state/ZIP tail. Adapted (as the paper adapted
	// CommonRegex) to favour precision.
	reAddress = regexp.MustCompile(`(?i)\b\d{1,6}\s+(?:[A-Za-z0-9.'-]+\s){0,3}?(?:street|st|avenue|ave|road|rd|boulevard|blvd|drive|dr|lane|ln|court|ct|circle|cir|way|place|pl|terrace|ter)\.?(?:\s*,?\s*(?:apt|apartment|unit|suite|ste|#)\s*\.?\s*[A-Za-z0-9-]+)?(?:\s*,\s*[A-Za-z .]+,\s*[A-Z]{2}\s*,?\s*\d{5}(?:-\d{4})?)?\b`)

	// US phone numbers: optional +1, separators, area code required.
	// The area-code parentheses are a single alternation so they only
	// match as a balanced pair: the earlier independent `\(?`/`\)?`
	// optionals accepted unbalanced forms like "(555 123-4567".
	rePhone = regexp.MustCompile(`(?:\+?1[-.\s]?)?(?:\(\b[2-9]\d{2}\)|\b[2-9]\d{2})[-.\s]\d{3}[-.\s]\d{4}\b`)

	// US SSN: strict AAA-GG-SSSS with the invalid prefixes excluded.
	reSSN = regexp.MustCompile(`\b(?:\d{3}-\d{2}-\d{4})\b`)

	reEmail = regexp.MustCompile(`\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b`)

	// Per-network credit card patterns (the paper used "a different
	// regular expression for each type of card company" for precision).
	reCardVisa       = regexp.MustCompile(`\b4\d{3}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b`)
	reCardMastercard = regexp.MustCompile(`\b5[1-5]\d{2}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b`)
	reCardAmex       = regexp.MustCompile(`\b3[47]\d{2}[ -]?\d{6}[ -]?\d{5}\b`)
	reCardDiscover   = regexp.MustCompile(`\b6(?:011|5\d{2})[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b`)

	// Profile URL patterns.
	reFacebookURL  = regexp.MustCompile(`(?i)(?:https?://)?(?:www\.|m\.)?facebook\.com/([A-Za-z0-9.]{5,50})\b`)
	reInstagramURL = regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?instagram\.com/([A-Za-z0-9._]{1,30})\b`)
	reTwitterURL   = regexp.MustCompile(`(?i)(?:https?://)?(?:www\.|mobile\.)?twitter\.com/([A-Za-z0-9_]{1,15})\b`)
	reYouTubeURL   = regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?youtube\.com/(?:(?:c|channel|user)/)?(@?[A-Za-z0-9_-]{3,60})\b`)

	// "site: username" mention patterns (case-insensitive site name or
	// abbreviation, optional colon/space, username per platform rules).
	reFacebookMention  = regexp.MustCompile(`(?i)\b(?:facebook|fb)\s*:\s*([A-Za-z0-9.]{5,50})\b`)
	reInstagramMention = regexp.MustCompile(`(?i)\b(?:instagram|ig|insta)\s*:\s*(@?[A-Za-z0-9._]{1,30})\b`)
	reTwitterMention   = regexp.MustCompile(`(?i)\b(?:twitter|twtr)\s*:\s*(@?[A-Za-z0-9_]{1,15})\b`)
	reYouTubeMention   = regexp.MustCompile(`(?i)\b(?:youtube|yt)\s*:\s*(@?[A-Za-z0-9_-]{3,60})\b`)
)

// oracleExtract holds each family's regexp extractor, aligned with
// plans.
var oracleExtract = []func(string) []Match{
	func(t string) []Match { return extractSimple(Address, reAddress, t, normaliseSpace) },
	extractCards,
	func(t string) []Match { return extractSimple(Email, reEmail, t, strings.ToLower) },
	func(t string) []Match { return extractHandles(Facebook, reFacebookURL, reFacebookMention, t) },
	func(t string) []Match { return extractHandles(Instagram, reInstagramURL, reInstagramMention, t) },
	extractPhones,
	extractSSNs,
	func(t string) []Match { return extractHandles(Twitter, reTwitterURL, reTwitterMention, t) },
	func(t string) []Match { return extractHandles(YouTube, reYouTubeURL, reYouTubeMention, t) },
}

// extractDirect runs every extraction plan unconditionally — the
// prefilter-free reference path the differential fuzz target compares
// Extract against.
func extractDirect(text string) []Match {
	var out []Match
	for _, extract := range oracleExtract {
		out = append(out, extract(text)...)
	}
	return dedupe(out)
}

func extractSimple(t Type, re *regexp.Regexp, text string, norm func(string) string) []Match {
	var out []Match
	for _, m := range re.FindAllString(text, -1) {
		out = append(out, Match{Type: t, Value: norm(m)})
	}
	return out
}

func extractPhones(text string) []Match {
	var out []Match
	for _, m := range rePhone.FindAllString(text, -1) {
		digits := digitsOnly(m)
		if len(digits) == 11 && digits[0] == '1' {
			digits = digits[1:]
		}
		if len(digits) != 10 {
			continue
		}
		// Exchange code cannot start with 0 or 1 in NANP.
		if digits[3] == '0' || digits[3] == '1' {
			continue
		}
		out = append(out, Match{Type: Phone, Value: digits})
	}
	return out
}

func extractSSNs(text string) []Match {
	var out []Match
	for _, m := range reSSN.FindAllString(text, -1) {
		area := m[:3]
		group := m[4:6]
		serial := m[7:]
		// SSA-invalid ranges: area 000, 666, 900-999; group 00; serial 0000.
		if area == "000" || area == "666" || area[0] == '9' {
			continue
		}
		if group == "00" || serial == "0000" {
			continue
		}
		out = append(out, Match{Type: SSN, Value: m})
	}
	return out
}

// cardPatterns is built once: the per-network patterns tried in order.
var cardPatterns = []*regexp.Regexp{reCardVisa, reCardMastercard, reCardAmex, reCardDiscover}

func extractCards(text string) []Match {
	var out []Match
	for _, re := range cardPatterns {
		for _, m := range re.FindAllString(text, -1) {
			digits := digitsOnly(m)
			if !luhnValid(digits) {
				continue
			}
			out = append(out, Match{Type: CreditCard, Value: digits})
		}
	}
	return out
}

func extractHandles(t Type, urlRe, mentionRe *regexp.Regexp, text string) []Match {
	out := appendHandles(nil, t, urlRe, text)
	return appendHandles(out, t, mentionRe, text)
}

func appendHandles(out []Match, t Type, re *regexp.Regexp, text string) []Match {
	stop := reservedPaths[t]
	for _, sub := range re.FindAllStringSubmatch(text, -1) {
		handle := strings.ToLower(strings.TrimPrefix(sub[1], "@"))
		if handle == "" || stop[handle] {
			continue
		}
		out = append(out, Match{Type: t, Value: handle})
	}
	return out
}

func digitsOnly(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// luhnValid reports whether the digit string passes the Luhn checksum.
func luhnValid(digits string) bool {
	if len(digits) < 12 {
		return false
	}
	sum := 0
	double := false
	for i := len(digits) - 1; i >= 0; i-- {
		d := int(digits[i] - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return sum%10 == 0
}

func normaliseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func dedupe(ms []Match) []Match {
	seen := map[Match]bool{}
	var out []Match
	for _, m := range ms {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// scanFacts is what one pass over a document establishes: the set of
// gate literals present (as a bitmask over acLiterals) and the ASCII
// digit count.
type scanFacts struct {
	lits   uint64
	digits int
}

// admits reports whether the facts satisfy a plan's gate.
func (f scanFacts) admits(p plan) bool {
	if f.digits < p.minDigits {
		return false
	}
	for _, g := range p.groups {
		if f.lits&g == 0 {
			return false
		}
	}
	return true
}

// gateTeddy is a prefilter over the engine's literal set, built after
// the package init has registered the literals.
var gateTeddy = sync.OnceValue(func() *engine.Teddy { return engine.NewTeddy(gateLiterals()) })

// scan runs the Teddy prefilter over text and reduces the result to the
// gate facts.
func scan(text string) scanFacts {
	var f engine.Facts
	gateTeddy().Scan(text, &f)
	return scanFacts{lits: f.LitMask, digits: f.Digits}
}
