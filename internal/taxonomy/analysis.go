package taxonomy

// Distribution summarises taxonomy codings over a set of calls to
// harassment: the per-parent and per-subcategory counts behind Tables 5,
// 10 and 11. Because a call to harassment can include multiple attack
// types, columns do not sum to 100%.
type Distribution struct {
	Total      int
	ParentHits map[Parent]int
	SubHits    map[Sub]int
}

// NewDistribution tallies the labels.
func NewDistribution(labels []Label) Distribution {
	d := Distribution{
		Total:      len(labels),
		ParentHits: map[Parent]int{},
		SubHits:    map[Sub]int{},
	}
	for _, l := range labels {
		for _, p := range l.Parents() {
			d.ParentHits[p]++
		}
		for _, s := range l.Subs() {
			d.SubHits[s]++
		}
	}
	return d
}

// ParentShare returns the fraction of labels that include parent p.
func (d Distribution) ParentShare(p Parent) float64 {
	if d.Total == 0 {
		return 0
	}
	return float64(d.ParentHits[p]) / float64(d.Total)
}

// CoOccurrence summarises multi-attack-type trends (§6.2).
type CoOccurrence struct {
	Total int
	// MultiType counts labels with more than one parent attack type
	// (13% / 831 in the paper).
	MultiType int
	// BySize[k] counts labels with exactly k parent attack types (the
	// paper: 767 with two, 54 with three, 10 with four or more).
	BySize map[int]int
	// Pair[a][b] counts labels containing both parents a and b.
	Pair map[Parent]map[Parent]int
}

// NewCoOccurrence computes attack-type co-occurrence over the labels.
func NewCoOccurrence(labels []Label) CoOccurrence {
	co := CoOccurrence{
		Total:  len(labels),
		BySize: map[int]int{},
		Pair:   map[Parent]map[Parent]int{},
	}
	for _, l := range labels {
		parents := l.Parents()
		k := len(parents)
		if k == 0 {
			continue
		}
		co.BySize[k]++
		if k > 1 {
			co.MultiType++
		}
		for i, a := range parents {
			for j, b := range parents {
				if i == j {
					continue
				}
				if co.Pair[a] == nil {
					co.Pair[a] = map[Parent]int{}
				}
				co.Pair[a][b]++
			}
		}
	}
	return co
}

// ConditionalShare returns the fraction of labels containing parent a that
// also contain parent b — the statistic behind "64% of the calls to
// harassment labeled as surveillance were also labeled as content
// leakage". Returns 0 when a never occurs.
func (co CoOccurrence) ConditionalShare(a, b Parent, dist Distribution) float64 {
	na := dist.ParentHits[a]
	if na == 0 {
		return 0
	}
	return float64(co.Pair[a][b]) / float64(na)
}
