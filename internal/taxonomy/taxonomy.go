// Package taxonomy encodes the paper's call-to-harassment attack-type
// taxonomy (§6.1): 10 parent attack types and 28 subcategory attack types,
// adapted from the hate-and-harassment taxonomy of Thomas et al. with the
// paper's additions ("public opinion manipulation", "generic", per-parent
// "miscellaneous"), promotions ("reputational harm") and merges
// ("raiding"+"dogpiling").
//
// The package also provides a rule-based categorizer used to code calls to
// harassment into the taxonomy, and co-occurrence analysis over
// multi-label codings (§6.2).
package taxonomy

import "math/bits"

// Parent is one of the 10 parent attack types of §6.1.1.
type Parent string

// The 10 parent attack types, in the alphabetical order of Table 5.
const (
	ContentLeakage Parent = "Content Leakage"
	Generic        Parent = "Generic"
	Impersonation  Parent = "Impersonation"
	Lockout        Parent = "Lockout And Control"
	Overloading    Parent = "Overloading"
	PublicOpinion  Parent = "Public Opinion Manip."
	Reporting      Parent = "Reporting"
	Reputational   Parent = "Reputational Harm"
	Surveillance   Parent = "Surveillance"
	ToxicContent   Parent = "Toxic Content"
)

// parentTable is Table 5's row order.
var parentTable = [...]Parent{
	ContentLeakage, Generic, Impersonation, Lockout, Overloading,
	PublicOpinion, Reporting, Reputational, Surveillance, ToxicContent,
}

// Parents lists all parent attack types in Table 5 row order.
func Parents() []Parent { return append([]Parent(nil), parentTable[:]...) }

// Definition returns the paper's §6.1.1 definition of the parent type.
func (p Parent) Definition() string {
	switch p {
	case ContentLeakage:
		return "Intentional leaking of personal information, media/imagery, or other PII; includes doxing."
	case Generic:
		return "Calls to harassment encouraging the crowd to bully or blackmail a target without suggesting an explicit tactic."
	case Impersonation:
		return "Intentionally pretending to represent a third party in order to do harm; includes creating false imagery presenting someone in a falsified context."
	case Lockout:
		return "Hacking or gaining unauthorized access to a target's account, device or otherwise."
	case Overloading:
		return "Attempting to put a target in a state where they are flooded with notifications, messages, or calls that they cannot manage."
	case PublicOpinion:
		return "Spreading narratives with the direct intent of manipulating public perception."
	case Reporting:
		return "Deceiving an online reporting system or institutional authority; includes SWATing and mass account reporting."
	case Reputational:
		return "Publicly or privately harassing an individual's family, employer or otherwise with the intent of damaging their reputation."
	case Surveillance:
		return "Following or monitoring an individual and reporting the results online with the intent of exposing otherwise private behavior."
	case ToxicContent:
		return "A wide range of harassment including hate speech, unwanted explicit content or otherwise inflammatory remarks unwanted by the target."
	default:
		return ""
	}
}

// Sub is one of the 28 subcategory attack types (Table 11).
type Sub string

// The 28 subcategories, grouped by parent, in Table 11 row order.
const (
	// Content Leakage (6).
	SubDoxing           Sub = "Content Leakage: Doxing"
	SubLeakedChats      Sub = "Content Leakage: Leaked Chats Profile"
	SubNonConsensual    Sub = "Content Leakage: Non-Consensual Media Exposure"
	SubOutingDeadnaming Sub = "Content Leakage: Outing/Deadnaming"
	SubDoxPropagation   Sub = "Content Leakage: Dox Propagation"
	SubContentLeakMisc  Sub = "Content Leakage (Misc.)"
	// Impersonation (3).
	SubImpersonatedProfiles Sub = "Impersonation: Impersonated Profiles"
	SubSyntheticPorn        Sub = "Impersonation: Synthetic Pornography"
	SubImpersonationMisc    Sub = "Impersonation (Misc.)"
	// Lockout And Control (2).
	SubAccountLockout Sub = "Lockout And Control: Account Lockout"
	SubLockoutMisc    Sub = "Lockout And Control (Misc.)"
	// Overloading (4).
	SubNegativeRatings Sub = "Overloading: Negative Ratings/Reviews"
	SubRaiding         Sub = "Overloading: Raiding"
	SubSpamming        Sub = "Overloading: Spamming"
	SubOverloadingMisc Sub = "Overloading (Misc.)"
	// Public Opinion Manipulation (2).
	SubHashtagHijacking  Sub = "Public Opinion Manipulation: Hashtag Hijacking"
	SubPublicOpinionMisc Sub = "Public Opinion Manipulation (Misc.)"
	// Reporting (3).
	SubFalseReporting Sub = "Reporting: False Reporting to Authorities"
	SubMassFlagging   Sub = "Reporting: Mass Flagging"
	SubReportingMisc  Sub = "Reporting (Misc.)"
	// Reputational Harm (3).
	SubReputationPrivate Sub = "Reputational Harm: Private"
	SubReputationPublic  Sub = "Reputational Harm: Public"
	SubReputationMisc    Sub = "Reputational Harm (Misc.)"
	// Surveillance (2).
	SubStalkingTracking Sub = "Surveillance: Stalking or Tracking"
	SubSurveillanceMisc Sub = "Surveillance (Misc.)"
	// Toxic Content (3).
	SubHateSpeech       Sub = "Toxic Content: Hate Speech"
	SubUnwantedExplicit Sub = "Toxic Content: Unwanted Explicit Content"
	SubToxicMisc        Sub = "Toxic Content (Misc.)"
	// Generic: the parent category has no subcategories of its own; this
	// Sub stands for the parent itself so that Labels can carry it. It is
	// NOT counted among the paper's 28 subcategory attack types.
	SubGeneric Sub = "Generic"
)

// SubcategoryCount is the number of true subcategory attack types in the
// taxonomy (the paper's "28 sub-category attack types"); the Generic
// parent row of Table 11 is excluded.
const SubcategoryCount = 28

// subTable is Table 11's row order with the Generic parent marker last;
// a subcategory's index here is its bit in a Label.
var subTable = [...]Sub{
	SubDoxing, SubLeakedChats, SubNonConsensual, SubOutingDeadnaming,
	SubDoxPropagation, SubContentLeakMisc,
	SubImpersonatedProfiles, SubSyntheticPorn, SubImpersonationMisc,
	SubAccountLockout, SubLockoutMisc,
	SubNegativeRatings, SubRaiding, SubSpamming, SubOverloadingMisc,
	SubHashtagHijacking, SubPublicOpinionMisc,
	SubFalseReporting, SubMassFlagging, SubReportingMisc,
	SubReputationPrivate, SubReputationPublic, SubReputationMisc,
	SubStalkingTracking, SubSurveillanceMisc,
	SubHateSpeech, SubUnwantedExplicit, SubToxicMisc,
	SubGeneric,
}

// Subs lists the 28 subcategories in Table 11 row order, plus the
// Generic parent marker as the final element (matching Table 11's last
// row).
func Subs() []Sub { return append([]Sub(nil), subTable[:]...) }

// parentOf maps each subcategory to its parent attack type.
var parentOf = map[Sub]Parent{
	SubDoxing: ContentLeakage, SubLeakedChats: ContentLeakage,
	SubNonConsensual: ContentLeakage, SubOutingDeadnaming: ContentLeakage,
	SubDoxPropagation: ContentLeakage, SubContentLeakMisc: ContentLeakage,
	SubImpersonatedProfiles: Impersonation, SubSyntheticPorn: Impersonation,
	SubImpersonationMisc: Impersonation,
	SubAccountLockout:    Lockout, SubLockoutMisc: Lockout,
	SubNegativeRatings: Overloading, SubRaiding: Overloading,
	SubSpamming: Overloading, SubOverloadingMisc: Overloading,
	SubHashtagHijacking: PublicOpinion, SubPublicOpinionMisc: PublicOpinion,
	SubFalseReporting: Reporting, SubMassFlagging: Reporting,
	SubReportingMisc:     Reporting,
	SubReputationPrivate: Reputational, SubReputationPublic: Reputational,
	SubReputationMisc:   Reputational,
	SubStalkingTracking: Surveillance, SubSurveillanceMisc: Surveillance,
	SubHateSpeech: ToxicContent, SubUnwantedExplicit: ToxicContent,
	SubToxicMisc: ToxicContent,
	SubGeneric:   Generic,
}

// Parent returns the parent attack type of the subcategory.
func (s Sub) Parent() Parent { return parentOf[s] }

// Label is the multi-label coding of one call to harassment: the set of
// subcategory attack types it incites. The paper codes each call to
// harassment with one or more categories. It is a bitset over subTable,
// so labels are comparable values and cost nothing to build.
type Label struct {
	bits uint32
}

// fallback pairs one parent's misc. subcategory bit with the bits of
// that parent's specific subcategories.
type fallback struct{ misc, specific uint32 }

// Bit tables derived from subTable and parentOf.
var (
	subBits       = map[Sub]uint32{}    // subcategory → its Label bit; 0 for an unknown Sub
	parentBits    = map[Parent]uint32{} // parent → the bits of its subcategories
	miscFallbacks []fallback
)

func init() {
	for i, s := range subTable {
		subBits[s] = 1 << i
		parentBits[parentOf[s]] |= 1 << i
	}
	for _, misc := range []Sub{
		SubContentLeakMisc, SubImpersonationMisc, SubLockoutMisc,
		SubOverloadingMisc, SubPublicOpinionMisc, SubReportingMisc,
		SubReputationMisc, SubSurveillanceMisc, SubToxicMisc,
	} {
		bit := subBits[misc]
		miscFallbacks = append(miscFallbacks, fallback{misc: bit, specific: parentBits[parentOf[misc]] &^ bit})
	}
}

// NewLabel builds a Label from subcategories, ignoring duplicates and
// anything that is not one of Subs().
func NewLabel(subs ...Sub) Label {
	var l Label
	for _, s := range subs {
		l.bits |= subBits[s]
	}
	return l
}

// HasParent reports whether the label includes any subcategory of p.
func (l Label) HasParent(p Parent) bool { return l.bits&parentBits[p] != 0 }

// Subs returns the label's subcategories in Table 11 order.
func (l Label) Subs() []Sub {
	if l.bits == 0 {
		return nil
	}
	return l.AppendSubs(make([]Sub, 0, l.Size()))
}

// AppendSubs appends Subs to dst: no allocation when dst has room for
// SubcategoryCount+1 (Generic is a label bit too).
func (l Label) AppendSubs(dst []Sub) []Sub {
	for b := l.bits; b != 0; b &= b - 1 {
		dst = append(dst, subTable[bits.TrailingZeros32(b)])
	}
	return dst
}

// Parents returns the label's distinct parent attack types in Table 5
// order.
func (l Label) Parents() []Parent {
	var out []Parent
	for _, p := range parentTable {
		if l.HasParent(p) {
			out = append(out, p)
		}
	}
	return out
}

// Size returns the number of subcategories in the label.
func (l Label) Size() int { return bits.OnesCount32(l.bits) }

// ParentCount returns the number of distinct parent attack types, the
// quantity behind the paper's co-occurrence analysis ("13% of the
// annotated calls to harassment contained more than one attack type").
func (l Label) ParentCount() int {
	n := 0
	for _, p := range parentTable {
		if l.HasParent(p) {
			n++
		}
	}
	return n
}

// Empty reports whether the label carries no categories.
func (l Label) Empty() bool { return l.bits == 0 }

// Merge returns the union of two labels.
func (l Label) Merge(other Label) Label { return Label{bits: l.bits | other.bits} }
