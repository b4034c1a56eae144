package harm

import (
	"reflect"
	"testing"

	"harassrepro/internal/pii"
)

func TestFromPIITable7(t *testing.T) {
	cases := []struct {
		types []pii.Type
		want  []Risk
	}{
		{[]pii.Type{pii.Facebook}, []Risk{Online}},
		{[]pii.Type{pii.Twitter, pii.YouTube, pii.Instagram}, []Risk{Online}},
		{[]pii.Type{pii.Address}, []Risk{Physical}},
		{[]pii.Type{pii.SSN}, []Risk{Economic}},
		{[]pii.Type{pii.CreditCard}, []Risk{Economic}},
		// Email carries both online and economic risk (spear phishing).
		{[]pii.Type{pii.Email}, []Risk{Economic, Online}},
		{[]pii.Type{pii.Address, pii.SSN, pii.Twitter}, []Risk{Physical, Economic, Online}},
		{nil, nil},
		// Phone maps to no Table 7 risk class.
		{[]pii.Type{pii.Phone}, nil},
	}
	for _, c := range cases {
		if got := FromPII(c.types); !reflect.DeepEqual(got, c.want) {
			t.Errorf("FromPII(%v) = %v, want %v", c.types, got, c.want)
		}
	}
}

func TestDetectReputation(t *testing.T) {
	positives := []string{
		"he works at the hardware store downtown",
		"tell his boss about this",
		"her mother lives nearby",
		"alert the landlord",
	}
	for _, p := range positives {
		if !DetectReputation(p) {
			t.Errorf("reputation not detected in %q", p)
		}
	}
	negatives := []string{
		"address and phone below",
		"just a regular post about games",
	}
	for _, n := range negatives {
		if DetectReputation(n) {
			t.Errorf("false reputation in %q", n)
		}
	}
}

func TestProfile(t *testing.T) {
	got := Profile([]pii.Type{pii.Address}, "he works at the mill, tell his employer")
	want := []Risk{Physical, Reputation}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Profile = %v, want %v", got, want)
	}
	if got := Profile(nil, "plain text"); got != nil {
		t.Errorf("empty Profile = %v", got)
	}
}

func TestComputeOverlap(t *testing.T) {
	perDox := [][]Risk{
		{Online},
		{Online},
		{Online, Physical},
		{Physical, Economic, Online, Reputation},
		nil, // no indicators (the Discord case)
	}
	ov := ComputeOverlap(perDox)
	if ov.Doxes != 5 || ov.NoRisk != 1 {
		t.Fatalf("doxes/noRisk = %d/%d", ov.Doxes, ov.NoRisk)
	}
	if ov.Totals[Online] != 4 || ov.Totals[Physical] != 2 || ov.Totals[Economic] != 1 || ov.Totals[Reputation] != 1 {
		t.Errorf("totals = %v", ov.Totals)
	}
	// Columns sorted by count: {Online} x2 first.
	if ov.Combinations[0].Count != 2 || ov.Combinations[0].Key() != "Online" {
		t.Errorf("first combination = %+v", ov.Combinations[0])
	}
	if got := allRisksCount(ov); got != 1 {
		t.Errorf("all-risks combination count = %d", got)
	}
	// Combination counts sum to doxes - NoRisk.
	sum := 0
	for _, c := range ov.Combinations {
		sum += c.Count
	}
	if sum != ov.Doxes-ov.NoRisk {
		t.Errorf("combination sum = %d, want %d", sum, ov.Doxes-ov.NoRisk)
	}
}

func TestComputeOverlapEmpty(t *testing.T) {
	ov := ComputeOverlap(nil)
	if ov.Doxes != 0 || len(ov.Combinations) != 0 || allRisksCount(ov) != 0 {
		t.Errorf("empty overlap = %+v", ov)
	}
}

// allRisksCount returns the number of doxes carrying every risk category.
func allRisksCount(ov Overlap) int {
	for _, c := range ov.Combinations {
		if len(c.Risks) == len(Risks()) {
			return c.Count
		}
	}
	return 0
}

func TestRisksOrder(t *testing.T) {
	want := []Risk{Physical, Economic, Online, Reputation}
	if !reflect.DeepEqual(Risks(), want) {
		t.Errorf("Risks() = %v", Risks())
	}
}
