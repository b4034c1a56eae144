package taxonomy

import (
	"math/bits"
	"regexp"
	"sync"
)

// Categorizer codes call-to-harassment text into taxonomy subcategories
// with keyword/phrase rules. It plays the role of the paper's domain
// expert coders for the automated reproduction: each subcategory has a
// bank of cue patterns derived from the paper's category definitions and
// published examples.
//
// Categorize does not run every cue over every document: a gate (gate.go)
// finds, in one pass, the rules whose pattern can possibly match, and
// only those regexps run. The regexps remain the single verifier, so the
// coding is exactly what running all of them would produce.
type Categorizer struct {
	rules []rule // in Subs() order, then cue order within a subcategory
	gate  *gate
}

type rule struct {
	sub Sub
	bit uint32 // the subcategory's Label bit
	re  *regexp.Regexp
}

// cuePatterns defines the per-subcategory cue regular expressions. The
// phrasing is drawn from the paper's published example incitements (§6.1.1)
// and category definitions.
var cuePatterns = map[Sub][]string{
	SubDoxing: {
		`\bdox+\b`, `\bdrop (?:his|her|their) (?:info|address)\b`,
		`\b(?:get|find|post) (?:his|her|their) (?:phone number|home address|address and name|real name)\b`,
		`\bmust be harassed.{0,40}(?:phone number|address)`,
	},
	SubLeakedChats: {
		`\bleaked (?:chat|discord|telegram) logs?\b`, `\bfrom the leaked logs\b`,
	},
	SubNonConsensual: {
		`\b(?:leak|post|share) (?:his|her|their) (?:nudes|private (?:photos|pictures|pics)|explicit (?:photos|images))\b`,
		`\brevenge porn\b`,
	},
	SubOutingDeadnaming: {
		`\bdeadname\b`, `\bout (?:him|her|them) as\b`,
	},
	SubDoxPropagation: {
		`\b(?:spread|repost|share|mirror) (?:the|this|that) dox\b`, `\bpass the dox around\b`,
	},
	SubContentLeakMisc: {
		`\bleak everything (?:about|on) (?:him|her|them)\b`, `\bdig up (?:his|her|their) (?:info|information)\b`,
	},
	SubImpersonatedProfiles: {
		`\b(?:make|create|set up) (?:a )?fake (?:accounts?|profiles?) (?:of|pretending to be|as)\b`,
		`\bimpersonate (?:him|her|them)\b`,
	},
	SubSyntheticPorn: {
		`\bdeep ?fakes? of porn\b`, `\bmake deep ?fakes?\b`, `\bdeepfake (?:porn|nudes)\b`,
	},
	SubImpersonationMisc: {
		`\bpretend to (?:be|represent) (?:him|her|them)\b`, `\bpose as (?:him|her|them)\b`,
	},
	SubAccountLockout: {
		`\b(?:hack|phish|physh|hijack|take over) (?:his|her|their) (?:accounts?|emails?|password)\b`,
		`\block (?:him|her|them) out of\b`,
	},
	SubLockoutMisc: {
		`\bget into (?:his|her|their) (?:device|computer|phone)\b`, `\bbreak into (?:his|her|their)\b`,
	},
	SubNegativeRatings: {
		`\b(?:one|1)[- ]star (?:reviews?|ratings?)\b`, `\b(?:review|rating) bomb\b`, `\bdownvote (?:bomb|everything)\b`,
	},
	SubRaiding: {
		`\braid (?:his|her|their|the|this)\b`, `\bbrigade\b`, `\bdogpile\b`,
		`\bflood the (?:comments|chat|thread|stream)\b`, `\bzoom ?bomb\b`,
	},
	SubSpamming: {
		`\bspam (?:him|her|them|his|her|their)\b`, `\bflood (?:his|her|their) inbox\b`,
	},
	SubOverloadingMisc: {
		`\bflood (?:him|her|them) with (?:notifications|messages|calls)\b`,
		`\bbury (?:him|her|them) in (?:notifications|messages|calls)\b`,
	},
	SubHashtagHijacking: {
		`\bhijack the hashtag\b`, `\b(?:use|push) #\w+ (?:on twitter )?(?:to|and) (?:derail|drown|flood)\b`,
		`\bkeep pushing that\b.{0,80}#\w+`,
	},
	SubPublicOpinionMisc: {
		`\b(?:push|spread|plant) (?:the|a|that) (?:false |fake )?(?:narrative|story|rumor|rumour)\b`,
		`\bmanipulat\w+ public (?:perception|opinion)\b`, `\bmake (?:it|this) trend as if\b`,
	},
	SubFalseReporting: {
		`\b(?:call|report (?:him|her|them) to) (?:the )?(?:cops|police|feds|fbi|ice|irs|cps|immigration)\b`,
		`\bswat+(?:ing|ed)?\b`, `\bfile (?:a )?false (?:reports?|complaints?)\b`,
		`\breport (?:him|her|them) to (?:his|her|their) (?:employer|boss|school|parents|landlord)\b`,
	},
	SubMassFlagging: {
		`\bmass[- ]?(?:report|flag)\b`, `\breport (?:his|her|their) (?:channel|account|twitter|youtube|videos?) until\b`,
		`\bflag (?:all|every(?:thing)?) (?:of )?(?:his|her|their)\b`, `\bget (?:his|her|their) (?:account|channel) (?:banned|taken down|suspended)\b`,
	},
	SubReportingMisc: {
		`\breport (?:him|her|them|this|that)\b`,
	},
	SubReputationPrivate: {
		`\b(?:tell|email|call|contact|alert|write to) (?:his|her|their) (?:boss|employer|family|parents|wife|husband|landlord|neighbou?rs|school)\b`,
		`\bsend (?:it|them|this|the (?:pics|photos|screenshots)) to (?:his|her|their) (?:family|friends|parents|boss|employer|mother|father|sister|brother|wife|husband|cousin|uncle)\b`,
	},
	SubReputationPublic: {
		`\bexpose (?:him|her|them) (?:publicly|online|everywhere|to the world)\b`,
		`\bpost (?:flyers|posters) (?:about|of)\b`, `\bmake (?:a )?threads? (?:about|on) (?:him|her|them) so everyone\b`,
		`\blet the (?:whole )?(?:internet|community|neighbou?rhood) know\b`,
	},
	SubReputationMisc: {
		`\b(?:ruin|destroy|trash|wreck) (?:his|her|their) (?:reputation|name|career)\b`, `\bostracis\w+\b`, `\bostraciz\w+\b`,
	},
	SubStalkingTracking: {
		`\b(?:track|follow|stalk) (?:him|her|them)\b`, `\bstick trackers?\b`, `\btrack (?:him|her|them) on gps\b`,
		`\bpost (?:his|her|their) (?:movements|whereabouts|location) (?:daily|every)\b`,
	},
	SubSurveillanceMisc: {
		`\bwatch (?:his|her|their) every move\b`, `\bkeep (?:tabs|watch) on (?:him|her|them)\b`,
	},
	SubHateSpeech: {
		`\b(?:racial|ethnic) slurs?\b`, `\bcall (?:him|her|them) slurs\b`, `\bhate speech\b`,
	},
	SubUnwantedExplicit: {
		`\bsend (?:him|her|them) (?:explicit|graphic|obscene) (?:content|images|pictures)\b`,
		`\bsend (?:him|her|them) (?:porn|gore)\b`,
	},
	SubToxicMisc: {
		`\btell (?:him|her|them) (?:he|she|they)(?:'s| is| are) (?:trash|worthless|garbage)\b`,
		`\bsend (?:him|her|them) bleach\b`, `\bcall (?:him|her|them) out in game\b`,
	},
	// Generic cues match whenever the crowd is urged to bully/blackmail
	// without a tactic; when a specific tactic cue also matches, the
	// categorizer's suppression rule removes the Generic label.
	SubGeneric: {
		`\b(?:bully|blackmail|torment|harass) (?:him|her|them)\b`,
		`\bmake (?:his|her|their) life hell\b`, `\bgo after (?:him|her|them)\b`,
	},
}

// NewCategorizer compiles the cue rules and the gate in front of them.
// Most callers want Shared instead.
func NewCategorizer() *Categorizer {
	c := &Categorizer{}
	var lits [][]string
	for i, s := range subTable {
		for _, pat := range cuePatterns[s] {
			pat = `(?i)` + pat
			set, err := requiredLiterals(pat)
			if err != nil || len(set) == 0 {
				// Every rule must be gated: an ungateable cue would have to
				// run on every document. TestCueLiteralsGolden names it.
				panic("taxonomy: no required literal for cue " + pat)
			}
			c.rules = append(c.rules, rule{sub: s, bit: 1 << i, re: regexp.MustCompile(pat)})
			lits = append(lits, set)
		}
	}
	c.gate = newGate(lits)
	return c
}

var shared = sync.OnceValue(NewCategorizer)

// Shared returns the process-wide Categorizer, compiling it on first
// use. Compilation (78 regexps and the gate) is deliberately not a
// package-level initialiser: processes that never annotate do not pay
// for it at start-up. A Categorizer is immutable and safe for
// concurrent use.
func Shared() *Categorizer { return shared() }

// Categorize codes text into a multi-label taxonomy Label. Generic and
// misc. subcategories are treated as fallbacks within their parent: a
// specific subcategory suppresses its parent's misc. label, and any
// specific parent suppresses Generic, mirroring the coders' rule that
// misc./generic apply only when no more specific category fits.
func (c *Categorizer) Categorize(text string) Label {
	var matched uint32
	for w, word := range c.gate.scan(text) {
		for ; word != 0; word &= word - 1 {
			r := &c.rules[w*64+bits.TrailingZeros64(word)]
			if matched&r.bit == 0 && r.re.MatchString(text) {
				matched |= r.bit
			}
		}
	}
	return Label{bits: suppressFallbacks(matched)}
}

// suppressFallbacks applies the coders' fallback rules to the matched
// subcategory bits.
func suppressFallbacks(matched uint32) uint32 {
	for _, f := range miscFallbacks {
		if matched&f.misc != 0 && matched&f.specific != 0 {
			matched &^= f.misc
		}
	}
	if generic := subBits[SubGeneric]; matched&generic != 0 && matched != generic {
		matched &^= generic
	}
	return matched
}
