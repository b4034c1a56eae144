package pii

// spec.go compiles the legacy regex cascade into the one-pass engine
// (internal/pii/engine). Every AST below mirrors its regexp in pii.go
// exactly — same classes, same alternation order, same greedy/lazy
// preference — so the engine's leftmost-first backtracker reproduces
// FindAll extents byte-for-byte; FuzzExtractPrefilterEquivalence
// holds the two implementations equal. The verify funcs are the
// legacy post-filters (NANP, SSA ranges, Luhn, handle stoplists)
// rewritten to append normalised values into the session arena
// instead of allocating strings.

import (
	"harassrepro/internal/pii/engine"
)

// Tracked-literal IDs (engine LitEvents), in registration order.
const (
	trAt = iota
	trFacebookCom
	trInstagramCom
	trTwitterCom
	trYouTubeCom
	trFacebook
	trFB
	trInstagram
	trIG
	trInsta
	trTwitter
	trTwtr
	trYouTube
	trYT
)

// trackOf maps prefilter literal text to its tracked-literal ID.
var trackOf = map[string]int{
	"@":             trAt,
	"facebook.com":  trFacebookCom,
	"instagram.com": trInstagramCom,
	"twitter.com":   trTwitterCom,
	"youtube.com":   trYouTubeCom,
	"facebook":      trFacebook,
	"fb":            trFB,
	"instagram":     trInstagram,
	"ig":            trIG,
	"insta":         trInsta,
	"twitter":       trTwitter,
	"twtr":          trTwtr,
	"youtube":       trYouTube,
	"yt":            trYT,
}

// Type indices in plan order (see plans in prefilter.go).
const (
	tiAddress = iota
	tiCards
	tiEmail
	tiFacebook
	tiInstagram
	tiPhone
	tiSSN
	tiTwitter
	tiYouTube
)

// typeOfIndex maps engine type indices back to PII types.
var typeOfIndex = [...]Type{
	Address, CreditCard, Email, Facebook, Instagram, Phone, SSN, Twitter, YouTube,
}

// buildEngine compiles the full engine spec. Called at the end of
// the package init in prefilter.go, after the plans (and with them
// the gate-literal bit assignments) exist.
func buildEngine() *engine.Engine {
	types := make([]engine.TypeSpec, len(plans))
	for i, p := range plans {
		types[i] = engine.TypeSpec{Name: p.name, Groups: p.groups, MinDigits: p.minDigits}
	}
	return engine.New(engine.Spec{
		Literals: gateLiterals(),
		Types:    types,
		Patterns: buildPatterns(),
	})
}

// gateLiterals is the prefilter's literal set: every registered gate
// literal on its bit, tracked where a pattern anchors on it.
func gateLiterals() []engine.TeddyLiteral {
	lits := make([]engine.TeddyLiteral, len(acLiterals))
	for i, l := range acLiterals {
		tid := -1
		if t, ok := trackOf[l]; ok {
			tid = t
		}
		lits[i] = engine.TeddyLiteral{Text: l, GateBit: i, TrackID: tid}
	}
	return lits
}

func buildPatterns() []engine.PatternSpec {
	var (
		d   = engine.Cls("0-9")
		ws  = engine.Cls(" \t\n\f\r") // Go regexp \s
		sep = engine.Cls("-. \t\n\f\r")
		gsp = engine.Opt(engine.Cls(" -")) // card group separator [ -]?
	)
	d3 := engine.Rep(d, 3, 3)
	d4 := engine.Rep(d, 4, 4)

	// (?i)\b\d{1,6}\s+(?:[A-Za-z0-9.'-]+\s){0,3}?(suffixes)\.?
	//   (?:\s*,?\s*(?:apt|...)\s*\.?\s*[A-Za-z0-9-]+)?
	//   (?:\s*,\s*[A-Za-z .]+,\s*[A-Z]{2}\s*,?\s*\d{5}(?:-\d{4})?)?\b
	address := engine.Seq(
		engine.Bnd(), engine.Rep(d, 1, 6), engine.Plus(ws),
		engine.RepLazy(engine.Seq(engine.Plus(engine.ClsFold("A-Za-z0-9.'-")), ws), 0, 3),
		engine.Alt(
			engine.LitFold("street"), engine.LitFold("st"),
			engine.LitFold("avenue"), engine.LitFold("ave"),
			engine.LitFold("road"), engine.LitFold("rd"),
			engine.LitFold("boulevard"), engine.LitFold("blvd"),
			engine.LitFold("drive"), engine.LitFold("dr"),
			engine.LitFold("lane"), engine.LitFold("ln"),
			engine.LitFold("court"), engine.LitFold("ct"),
			engine.LitFold("circle"), engine.LitFold("cir"),
			engine.LitFold("way"), engine.LitFold("place"), engine.LitFold("pl"),
			engine.LitFold("terrace"), engine.LitFold("ter"),
		),
		engine.Opt(engine.Lit(".")),
		engine.Opt(engine.Seq(
			engine.Star(ws), engine.Opt(engine.Lit(",")), engine.Star(ws),
			engine.Alt(
				engine.LitFold("apt"), engine.LitFold("apartment"),
				engine.LitFold("unit"), engine.LitFold("suite"),
				engine.LitFold("ste"), engine.Lit("#"),
			),
			engine.Star(ws), engine.Opt(engine.Lit(".")), engine.Star(ws),
			engine.Plus(engine.ClsFold("A-Za-z0-9-")),
		)),
		engine.Opt(engine.Seq(
			engine.Star(ws), engine.Lit(","), engine.Star(ws),
			engine.Plus(engine.ClsFold("A-Za-z .")),
			engine.Lit(","), engine.Star(ws),
			engine.Rep(engine.ClsFold("A-Z"), 2, 2),
			engine.Star(ws), engine.Opt(engine.Lit(",")), engine.Star(ws),
			engine.Rep(d, 5, 5),
			engine.Opt(engine.Seq(engine.Lit("-"), d4)),
		)),
		engine.Bnd(),
	)

	// (?:\+?1[-.\s]?)?(?:\(\b[2-9]\d{2}\)|\b[2-9]\d{2})[-.\s]\d{3}[-.\s]\d{4}\b
	// (the balanced-parentheses form; see rePhone in pii.go)
	phone := engine.Seq(
		engine.Opt(engine.Seq(
			engine.Opt(engine.Lit("+")), engine.Lit("1"), engine.Opt(sep),
		)),
		engine.Alt(
			engine.Seq(engine.Lit("("), engine.Bnd(), engine.Cls("2-9"), engine.Rep(d, 2, 2), engine.Lit(")")),
			engine.Seq(engine.Bnd(), engine.Cls("2-9"), engine.Rep(d, 2, 2)),
		),
		sep, d3, sep, d4, engine.Bnd(),
	)

	// \b(?:\d{3}-\d{2}-\d{4})\b
	ssn := engine.Seq(
		engine.Bnd(), d3, engine.Lit("-"), engine.Rep(d, 2, 2), engine.Lit("-"), d4, engine.Bnd(),
	)

	// \b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b
	email := engine.Seq(
		engine.Bnd(), engine.Plus(engine.Cls("A-Za-z0-9._%+-")),
		engine.Lit("@"), engine.Plus(engine.Cls("A-Za-z0-9.-")),
		engine.Lit("."), engine.Rep(engine.Cls("A-Za-z"), 2, -1),
		engine.Bnd(),
	)

	visa := engine.Seq(engine.Bnd(), engine.Lit("4"), d3, gsp, d4, gsp, d4, gsp, d4, engine.Bnd())
	mc := engine.Seq(engine.Bnd(), engine.Lit("5"), engine.Cls("1-5"), engine.Rep(d, 2, 2),
		gsp, d4, gsp, d4, gsp, d4, engine.Bnd())
	amex := engine.Seq(engine.Bnd(), engine.Lit("3"), engine.Cls("47"), engine.Rep(d, 2, 2),
		gsp, engine.Rep(d, 6, 6), gsp, engine.Rep(d, 5, 5), engine.Bnd())
	discover := engine.Seq(engine.Bnd(), engine.Lit("6"),
		engine.Alt(engine.Lit("011"), engine.Seq(engine.Lit("5"), engine.Rep(d, 2, 2))),
		gsp, d4, gsp, d4, gsp, d4, engine.Bnd())

	// (?i)(?:https?://)? prefix shared by the URL patterns.
	httpOpt := engine.Opt(engine.Seq(
		engine.LitFold("http"), engine.Opt(engine.LitFold("s")), engine.Lit("://"),
	))

	fbURL := engine.Seq(httpOpt,
		engine.Opt(engine.Alt(engine.LitFold("www."), engine.LitFold("m."))),
		engine.LitFold("facebook.com/"),
		engine.Cap(engine.Rep(engine.ClsFold("A-Za-z0-9."), 5, 50)),
		engine.Bnd(),
	)
	igURL := engine.Seq(httpOpt,
		engine.Opt(engine.LitFold("www.")),
		engine.LitFold("instagram.com/"),
		engine.Cap(engine.Rep(engine.ClsFold("A-Za-z0-9._"), 1, 30)),
		engine.Bnd(),
	)
	twURL := engine.Seq(httpOpt,
		engine.Opt(engine.Alt(engine.LitFold("www."), engine.LitFold("mobile."))),
		engine.LitFold("twitter.com/"),
		engine.Cap(engine.Rep(engine.ClsFold("A-Za-z0-9_"), 1, 15)),
		engine.Bnd(),
	)
	ytURL := engine.Seq(httpOpt,
		engine.Opt(engine.LitFold("www.")),
		engine.LitFold("youtube.com/"),
		engine.Opt(engine.Seq(
			engine.Alt(engine.LitFold("c"), engine.LitFold("channel"), engine.LitFold("user")),
			engine.Lit("/"),
		)),
		engine.Cap(engine.Seq(engine.Opt(engine.Lit("@")), engine.Rep(engine.ClsFold("A-Za-z0-9_-"), 3, 60))),
		engine.Bnd(),
	)

	mention := func(sites *engine.Node, handle *engine.Node) *engine.Node {
		return engine.Seq(
			engine.Bnd(), sites,
			engine.Star(ws), engine.Lit(":"), engine.Star(ws),
			engine.Cap(handle), engine.Bnd(),
		)
	}
	atOpt := engine.Opt(engine.Lit("@"))
	fbM := mention(
		engine.Alt(engine.LitFold("facebook"), engine.LitFold("fb")),
		engine.Rep(engine.ClsFold("A-Za-z0-9."), 5, 50),
	)
	igM := mention(
		engine.Alt(engine.LitFold("instagram"), engine.LitFold("ig"), engine.LitFold("insta")),
		engine.Seq(atOpt, engine.Rep(engine.ClsFold("A-Za-z0-9._"), 1, 30)),
	)
	twM := mention(
		engine.Alt(engine.LitFold("twitter"), engine.LitFold("twtr")),
		engine.Seq(atOpt, engine.Rep(engine.ClsFold("A-Za-z0-9_"), 1, 15)),
	)
	ytM := mention(
		engine.Alt(engine.LitFold("youtube"), engine.LitFold("yt")),
		engine.Seq(atOpt, engine.Rep(engine.ClsFold("A-Za-z0-9_-"), 3, 60)),
	)

	// URL windows: candidate base is the host start (event end minus
	// host length); the window reaches back over the longest legal
	// scheme+subdomain prefix ("https://" + "www."/"m."/"mobile.").
	urlTrack := func(id, hostLen, maxSub int) []engine.TrackRef {
		return []engine.TrackRef{{ID: id, Back: hostLen, Window: 8 + maxSub}}
	}
	mentionTrack := func(refs ...engine.TrackRef) []engine.TrackRef { return refs }

	return []engine.PatternSpec{
		{Type: tiAddress, AST: address, Kind: engine.CandDigitRun, Verify: verifyAddress},
		{Type: tiCards, AST: visa, Kind: engine.CandDigitRun, DigitFamily: true, Verify: verifyCard},
		{Type: tiCards, AST: mc, Kind: engine.CandDigitRun, DigitFamily: true, Verify: verifyCard},
		{Type: tiCards, AST: amex, Kind: engine.CandDigitRun, DigitFamily: true, Verify: verifyCard},
		{Type: tiCards, AST: discover, Kind: engine.CandDigitRun, DigitFamily: true, Verify: verifyCard},
		{Type: tiEmail, AST: email, Kind: engine.CandEmail,
			Track: []engine.TrackRef{{ID: trAt, Back: 1}}, Verify: verifyEmail},
		{Type: tiFacebook, AST: fbURL, Kind: engine.CandEvent,
			Track: urlTrack(trFacebookCom, 12, 4), Verify: verifyHandle(Facebook)},
		{Type: tiFacebook, AST: fbM, Kind: engine.CandEvent,
			Track: mentionTrack(
				engine.TrackRef{ID: trFacebook, Back: 8},
				engine.TrackRef{ID: trFB, Back: 2},
			), Verify: verifyHandle(Facebook)},
		{Type: tiInstagram, AST: igURL, Kind: engine.CandEvent,
			Track: urlTrack(trInstagramCom, 13, 4), Verify: verifyHandle(Instagram)},
		{Type: tiInstagram, AST: igM, Kind: engine.CandEvent,
			Track: mentionTrack(
				engine.TrackRef{ID: trInstagram, Back: 9},
				engine.TrackRef{ID: trIG, Back: 2},
				engine.TrackRef{ID: trInsta, Back: 5},
			), Verify: verifyHandle(Instagram)},
		{Type: tiPhone, AST: phone, Kind: engine.CandDigitRun, DigitFamily: true,
			Prefix: "+(", Interior: "1", Verify: verifyPhone},
		{Type: tiSSN, AST: ssn, Kind: engine.CandDigitRun, DigitFamily: true, Verify: verifySSN},
		{Type: tiTwitter, AST: twURL, Kind: engine.CandEvent,
			Track: urlTrack(trTwitterCom, 11, 7), Verify: verifyHandle(Twitter)},
		{Type: tiTwitter, AST: twM, Kind: engine.CandEvent,
			Track: mentionTrack(
				engine.TrackRef{ID: trTwitter, Back: 7},
				engine.TrackRef{ID: trTwtr, Back: 4},
			), Verify: verifyHandle(Twitter)},
		{Type: tiYouTube, AST: ytURL, Kind: engine.CandEvent,
			Track: urlTrack(trYouTubeCom, 11, 4), Verify: verifyHandle(YouTube)},
		{Type: tiYouTube, AST: ytM, Kind: engine.CandEvent,
			Track: mentionTrack(
				engine.TrackRef{ID: trYouTube, Back: 7},
				engine.TrackRef{ID: trYT, Back: 2},
			), Verify: verifyHandle(YouTube)},
	}
}

// --- verify / normalise hooks (the legacy post-filters, arena-based) ---

func verifyPhone(text string, s, e, _, _ int32, arena []byte) ([]byte, int32, int32, bool) {
	off := int32(len(arena))
	for i := s; i < e; i++ {
		if c := text[i]; '0' <= c && c <= '9' {
			arena = append(arena, c)
		}
	}
	n := int32(len(arena)) - off
	if n == 11 && arena[off] == '1' {
		copy(arena[off:], arena[off+1:])
		arena = arena[:len(arena)-1]
		n--
	}
	if n != 10 || arena[off+3] == '0' || arena[off+3] == '1' {
		return arena[:off], 0, 0, false
	}
	return arena, off, n, true
}

func verifySSN(text string, s, e, _, _ int32, arena []byte) ([]byte, int32, int32, bool) {
	m := text[s:e] // exactly \d{3}-\d{2}-\d{4}: 11 bytes
	area, group, serial := m[:3], m[4:6], m[7:]
	if area == "000" || area == "666" || area[0] == '9' {
		return arena, 0, 0, false
	}
	if group == "00" || serial == "0000" {
		return arena, 0, 0, false
	}
	off := int32(len(arena))
	arena = append(arena, m...)
	return arena, off, int32(len(m)), true
}

func verifyCard(text string, s, e, _, _ int32, arena []byte) ([]byte, int32, int32, bool) {
	off := int32(len(arena))
	for i := s; i < e; i++ {
		if c := text[i]; '0' <= c && c <= '9' {
			arena = append(arena, c)
		}
	}
	if !luhnValidBytes(arena[off:]) {
		return arena[:off], 0, 0, false
	}
	return arena, off, int32(len(arena)) - off, true
}

func verifyEmail(text string, s, e, _, _ int32, arena []byte) ([]byte, int32, int32, bool) {
	off := int32(len(arena))
	for i := s; i < e; i++ {
		b := text[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		arena = append(arena, b)
	}
	return arena, off, e - s, true
}

// verifyAddress normalises whitespace exactly like normaliseSpace:
// runs of ASCII whitespace collapse to one space. The match can
// neither start nor end with whitespace (it starts with a digit and
// ends at a word boundary after a non-space), so no trimming arises.
func verifyAddress(text string, s, e, _, _ int32, arena []byte) ([]byte, int32, int32, bool) {
	off := int32(len(arena))
	pending := false
	for i := s; i < e; i++ {
		b := text[i]
		if b == ' ' || b == '\t' || b == '\n' || b == '\f' || b == '\r' {
			pending = true
			continue
		}
		if pending {
			arena = append(arena, ' ')
			pending = false
		}
		arena = append(arena, b)
	}
	return arena, off, int32(len(arena)) - off, true
}

// verifyHandle lowercases the captured handle (trimming one leading
// "@") into the arena and applies the platform's reserved-path
// stoplist. ASCII letters fold in place; U+212A (Kelvin) folds to
// 'k' and U+017F (long s) stays itself, matching strings.ToLower.
func verifyHandle(t Type) engine.VerifyFunc {
	stop := reservedPaths[t]
	return func(text string, _, _, cs, ce int32, arena []byte) ([]byte, int32, int32, bool) {
		off := int32(len(arena))
		i := cs
		if i < ce && text[i] == '@' {
			i++
		}
		for i < ce {
			b := text[i]
			switch {
			case 'A' <= b && b <= 'Z':
				arena = append(arena, b+'a'-'A')
				i++
			case b == 0xE2 && i+2 < ce && text[i+1] == 0x84 && text[i+2] == 0xAA:
				arena = append(arena, 'k')
				i += 3
			default:
				arena = append(arena, b)
				i++
			}
		}
		h := arena[off:]
		if len(h) == 0 || stop[string(h)] {
			return arena[:off], 0, 0, false
		}
		return arena, off, int32(len(h)), true
	}
}

// luhnValidBytes is luhnValid over arena bytes (no string conversion).
func luhnValidBytes(digits []byte) bool {
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
