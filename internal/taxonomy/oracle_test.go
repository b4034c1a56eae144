package taxonomy

import (
	"math/bits"
	"slices"
)

// oracleCategorize is Categorize as it was before the gate: every cue
// regexp in rule order over the whole text, then the fallback
// suppression on per-call maps. It is kept only as the differential
// oracle for the gated implementation.
func oracleCategorize(c *Categorizer, text string) Label {
	matched := map[Sub]bool{}
	for _, r := range c.rules {
		if matched[r.sub] {
			continue
		}
		if r.re.MatchString(text) {
			matched[r.sub] = true
		}
	}
	// Specific subcategory suppresses its parent's misc label.
	miscOf := map[Parent]Sub{
		ContentLeakage: SubContentLeakMisc,
		Impersonation:  SubImpersonationMisc,
		Lockout:        SubLockoutMisc,
		Overloading:    SubOverloadingMisc,
		PublicOpinion:  SubPublicOpinionMisc,
		Reporting:      SubReportingMisc,
		Reputational:   SubReputationMisc,
		Surveillance:   SubSurveillanceMisc,
		ToxicContent:   SubToxicMisc,
	}
	for parent, misc := range miscOf {
		if !matched[misc] {
			continue
		}
		for _, s := range subsOf(parent) {
			if s != misc && matched[s] {
				delete(matched, misc)
				break
			}
		}
	}
	// Any specific parent suppresses the Generic fallback.
	if matched[SubGeneric] && len(matched) > 1 {
		delete(matched, SubGeneric)
	}
	subs := make([]Sub, 0, len(matched))
	for s := range matched {
		subs = append(subs, s)
	}
	return NewLabel(subs...)
}

// Exports for the external test package (corpus imports taxonomy, so the
// corpus differential cannot live in package taxonomy).

// OracleCategorize is oracleCategorize.
func OracleCategorize(c *Categorizer, text string) Label { return oracleCategorize(c, text) }

// GatedRules returns how many cue regexps the gate lets through for
// text: an upper bound on the regexps Categorize runs.
func GatedRules(c *Categorizer, text string) int {
	hit := c.gate.scan(text)
	return bits.OnesCount64(hit[0]) + bits.OnesCount64(hit[1])
}

// subsOf returns the subcategories of a parent, in Table 11 order.
func subsOf(p Parent) []Sub {
	var out []Sub
	for _, s := range subTable {
		if s.Parent() == p {
			out = append(out, s)
		}
	}
	return out
}

// has reports whether the label includes the subcategory.
func has(l Label, s Sub) bool { return slices.Contains(l.Subs(), s) }
