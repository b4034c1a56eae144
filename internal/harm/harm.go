// Package harm implements the paper's harm-risk taxonomy (§7.2, Table 7):
// the PII contained in a dox is mapped to the categories of harm the
// target is at increased risk of — online, physical, economic/identity,
// and reputational — and risk-combination overlap is computed for the
// Venn visualisation of Figure 2.
package harm

import (
	"regexp"
	"sort"
	"strings"

	"harassrepro/internal/pii"
)

// Risk is one harm-risk category of Table 7.
type Risk string

// The four harm-risk categories.
const (
	Online     Risk = "Online"
	Physical   Risk = "Physical"
	Economic   Risk = "Economic / Identity"
	Reputation Risk = "Reputation"
)

// Risks lists the categories in Figure 2 row order.
func Risks() []Risk { return []Risk{Physical, Economic, Online, Reputation} }

// piiRisks is the Table 7 mapping from PII type to harm risk. Reputation
// risk is not PII-derivable; see DetectReputation.
var piiRisks = map[pii.Type][]Risk{
	pii.Email:      {Online, Economic},
	pii.Instagram:  {Online},
	pii.Facebook:   {Online},
	pii.Twitter:    {Online},
	pii.YouTube:    {Online},
	pii.Address:    {Physical},
	pii.CreditCard: {Economic},
	pii.SSN:        {Economic},
}

// FromPII maps extracted PII types to the harm risks they indicate
// (Table 7 rows 1-3: Online, Physical, Economic/Identity).
func FromPII(types []pii.Type) []Risk {
	set := map[Risk]bool{}
	for _, t := range types {
		for _, r := range piiRisks[t] {
			set[r] = true
		}
	}
	return sortedRisks(set)
}

// reReputation detects mentions of family members or employment — the
// information behind Table 7's Reputation row, which the paper annotated
// manually ("*We used manual annotation for the Reputation risk
// category"). This detector stands in for that manual pass.
var reReputation = regexp.MustCompile(`(?i)\b(?:employer|boss|works? at|workplace|place of employment|mother|father|sister|brother|wife|husband|cousin|uncle|parents|family|landlord|school)\b`)

// DetectReputation reports whether the dox text exposes family or
// employment information.
func DetectReputation(text string) bool {
	return reReputation.MatchString(text)
}

// Profile computes the full risk set for one dox: PII-derived risks plus
// reputation detection over the text.
func Profile(types []pii.Type, text string) []Risk {
	set := map[Risk]bool{}
	for _, r := range FromPII(types) {
		set[r] = true
	}
	if DetectReputation(text) {
		set[Reputation] = true
	}
	return sortedRisks(set)
}

func sortedRisks(set map[Risk]bool) []Risk {
	var out []Risk
	for _, r := range Risks() {
		if set[r] {
			out = append(out, r)
		}
	}
	return out
}

// Combination is one column of Figure 2: a distinct set of co-occurring
// harm risks and the number of doxes carrying exactly that set.
type Combination struct {
	Risks []Risk
	Count int
}

// Key renders a canonical key for the combination.
func (c Combination) Key() string {
	parts := make([]string, len(c.Risks))
	for i, r := range c.Risks {
		parts[i] = string(r)
	}
	return strings.Join(parts, "+")
}

// Overlap is the Figure 2 data: per-combination counts (columns) and
// per-risk totals (the right-hand column of the figure).
type Overlap struct {
	Combinations []Combination
	Totals       map[Risk]int
	// NoRisk counts doxes with no detected risk indicator (the paper
	// notes more than 50% of Discord doxes carried none).
	NoRisk int
	Doxes  int
}

// ComputeOverlap tallies risk combinations over per-dox risk sets.
// Combinations are returned sorted by descending count, matching the
// Figure 2 column order.
func ComputeOverlap(perDox [][]Risk) Overlap {
	ov := Overlap{Totals: map[Risk]int{}, Doxes: len(perDox)}
	counts := map[string]Combination{}
	for _, risks := range perDox {
		if len(risks) == 0 {
			ov.NoRisk++
			continue
		}
		for _, r := range risks {
			ov.Totals[r]++
		}
		c := Combination{Risks: risks}
		key := c.Key()
		cur, ok := counts[key]
		if !ok {
			cur = c
		}
		cur.Count++
		counts[key] = cur
	}
	for _, c := range counts {
		ov.Combinations = append(ov.Combinations, c)
	}
	sort.Slice(ov.Combinations, func(i, j int) bool {
		if ov.Combinations[i].Count != ov.Combinations[j].Count {
			return ov.Combinations[i].Count > ov.Combinations[j].Count
		}
		return ov.Combinations[i].Key() < ov.Combinations[j].Key()
	})
	return ov
}
