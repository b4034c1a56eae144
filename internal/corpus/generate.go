package corpus

import (
	"fmt"
	"math"
	"strings"

	"harassrepro/internal/gender"
	"harassrepro/internal/pii"
	"harassrepro/internal/randx"
	"harassrepro/internal/synth"
	"harassrepro/internal/taxonomy"
)

// Config controls corpus generation scale.
type Config struct {
	// Seed drives all randomness; identical configs generate identical
	// corpora.
	Seed uint64
	// VolumeScale divides the Table 1 raw data set sizes. Default
	// 10,000 (≈70K total documents). The pastes data set is boosted 5x
	// relative to VolumeScale because its dox density at full scale is
	// far above the other platforms' (Table 4) and would otherwise not
	// fit.
	VolumeScale int
	// PositiveScale divides the paper's full-scale true-positive
	// volumes (Table 4 counts corrected for sampled annotation).
	// Default 10.
	PositiveScale int
}

func (c *Config) fillDefaults() {
	if c.VolumeScale <= 0 {
		c.VolumeScale = 10_000
	}
	if c.PositiveScale <= 0 {
		c.PositiveScale = 10
	}
}

// fullScaleTruePositives estimates the paper's full-scale true-positive
// counts per platform: for platforms where every above-threshold document
// was annotated (Table 4's * rows) this is the reported TP count; for
// sampled platforms it is aboveThreshold x measured precision.
var fullScaleTruePositives = struct {
	Dox map[Platform]float64
	CTH map[Platform]float64
}{
	Dox: map[Platform]float64{
		PlatformBoards:   14675 * (2549.0 / 3300.0),
		PlatformDiscord:  153,
		PlatformGab:      1657,
		PlatformPastes:   52849 * (3118.0 / 3241.0),
		PlatformTelegram: 948,
	},
	CTH: map[Platform]float64{
		PlatformBoards:   30685 * (2045.0 / 3016.0),
		PlatformGab:      1335,
		PlatformDiscord:  510,
		PlatformTelegram: 2364,
	},
}

// Generator produces the four machine-filtered corpora (boards, chat,
// gab, pastes). Blogs are generated separately (see GenerateBlogs) since
// the paper analyses them qualitatively.
type Generator struct {
	cfg Config
	rng *randx.Source

	// persona registry for repeated-dox structure: personaID -> persona,
	// and the platforms each persona has been doxed on. doxedAll keeps
	// insertion order so sampling is deterministic.
	personas    []synth.Persona
	doxedOn     map[int][]Platform
	doxedByPlat map[Platform][]int
	doxedAll    []int
	// lastPII remembers each doxed persona's exposed PII so that
	// repeated doxes extend rather than resample it (§7.3).
	lastPII map[int][]pii.Type
}

// NewGenerator returns a Generator for the configuration.
func NewGenerator(cfg Config) *Generator {
	cfg.fillDefaults()
	return &Generator{
		cfg:         cfg,
		rng:         randx.New(cfg.Seed).Split("corpus"),
		doxedOn:     map[int][]Platform{},
		doxedByPlat: map[Platform][]int{},
		lastPII:     map[int][]pii.Type{},
	}
}

// Generate produces all four machine-filtered corpora.
func (g *Generator) Generate() map[Dataset]*Corpus {
	out := map[Dataset]*Corpus{
		Boards: g.generateBoards(),
		Chat:   g.generateChat(),
		Gab:    g.generateFlat(PlatformGab),
		Pastes: g.generateFlat(PlatformPastes),
	}
	return out
}

// volumeFor returns the scaled corpus size for a platform.
func (g *Generator) volumeFor(p Platform) int {
	switch p {
	case PlatformPastes:
		return RawSizes[Pastes] * 5 / g.cfg.VolumeScale
	case PlatformGab:
		return RawSizes[Gab] / g.cfg.VolumeScale
	case PlatformDiscord:
		return RawSizes[Chat] * 2 / (5 * g.cfg.VolumeScale) // 40% of chat
	case PlatformTelegram:
		return RawSizes[Chat] * 3 / (5 * g.cfg.VolumeScale) // 60% of chat
	default:
		return RawSizes[Boards] / g.cfg.VolumeScale
	}
}

// plantedDox returns the number of true doxes to plant on a platform.
func (g *Generator) plantedDox(p Platform) int {
	return int(math.Round(fullScaleTruePositives.Dox[p] / float64(g.cfg.PositiveScale)))
}

// plantedCTH returns the number of true calls to harassment to plant.
// The CTH task does not apply to pastes (Table 2).
func (g *Generator) plantedCTH(p Platform) int {
	return int(math.Round(fullScaleTruePositives.CTH[p] / float64(g.cfg.PositiveScale)))
}

// newPersona mints a new persona, registering it in the target pool.
func (g *Generator) newPersona(rng *randx.Source) int {
	p := synth.NewPersona(rng)
	g.personas = append(g.personas, p)
	return len(g.personas) - 1
}

// doxTarget picks the persona for a new dox on a platform, implementing
// the repeated-dox structure of §7.3: on pastes a substantial share of
// doxes re-target already-doxed personas (same-platform re-posts
// dominate); other platforms repeat rarely; a small slice of repeats
// cross data sets.
func (g *Generator) doxTarget(p Platform, rng *randx.Source) int {
	// Rates are calibrated so that, counting both sides of each repeat
	// pair, ~20% of doxes overall are linkable repeats (§7.3), with the
	// overwhelming majority of repeats on pastes.
	repeatRate := 0.015
	if p == PlatformPastes {
		repeatRate = 0.14
	}
	if p == PlatformBoards {
		repeatRate = 0.03
	}
	if rng.Bool(repeatRate) {
		// 98% of repeated doxes are re-posts on the same data set; a
		// cross-data-set pick contaminates its whole linked group, so
		// the event rate sits well below the 2% group-level target.
		pool := g.doxedByPlat[p]
		if rng.Bool(0.004) || len(pool) == 0 {
			// Cross-data-set repeat: pick any previously doxed persona.
			if len(g.doxedAll) > 0 {
				return g.doxedAll[rng.Intn(len(g.doxedAll))]
			}
		} else {
			return pool[rng.Intn(len(pool))]
		}
	}
	return g.newPersona(rng)
}

// recordDox registers that persona id was doxed on platform p.
func (g *Generator) recordDox(id int, p Platform) {
	if len(g.doxedOn[id]) == 0 {
		g.doxedAll = append(g.doxedAll, id)
	}
	g.doxedOn[id] = append(g.doxedOn[id], p)
	g.doxedByPlat[p] = append(g.doxedByPlat[p], id)
}

// sampleCTHLabel draws a planted taxonomy label for a platform and
// inferred-gender class, following Table 11 x Table 10 mixtures and the
// §6.2 multi-type co-occurrence structure.
func (g *Generator) sampleCTHLabel(p Platform, gcls gender.Gender, rng *randx.Source) taxonomy.Label {
	_, t11 := tableColumns(p)
	subs, w := subSamplerSubs, subSamplers[t11][genderColumn(gcls)]
	primary := subs[w.Sample(rng)]
	chosen := []taxonomy.Sub{primary}

	// Observed couplings (§6.2) apply unconditionally to their rare
	// primaries: 64% of surveillance calls also leak content; 30% of
	// impersonation calls also manipulate public opinion.
	switch primary.Parent() {
	case taxonomy.Surveillance:
		if rng.Bool(surveillanceLeakRate) {
			chosen = append(chosen, taxonomy.SubDoxing)
		}
	case taxonomy.Impersonation:
		if rng.Bool(impersonationPOMShare) {
			chosen = append(chosen, taxonomy.SubPublicOpinionMisc)
		}
	}

	// Multi-type structure: 13.3% of CTH carry >1 parent type; of those
	// 92.3% two, 6.5% three, ~1% four.
	if len(chosen) == 1 && rng.Bool(multiTypeRate) {
		extra := 1
		r := rng.Float64()
		if r < fourTypeShare {
			extra = 3
		} else if r < fourTypeShare+threeTypeShare {
			extra = 2
		}
		for len(chosen) < 1+extra {
			next := subs[w.Sample(rng)]
			dup := false
			for _, c := range chosen {
				if c.Parent() == next.Parent() {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, next)
			} else if rng.Bool(0.5) {
				// Avoid rare infinite loops on tiny mixtures.
				break
			}
		}
	}
	return taxonomy.NewLabel(chosen...)
}

// samplePII draws the PII types for a planted dox on a platform from the
// Table 6 mixture. Every dox carries at least one type; the empty draw is
// rejected and resampled so the conditional mixture keeps Table 6's
// relative shape (a fixed fallback type would inflate that type alone).
func (g *Generator) samplePII(p Platform, rng *randx.Source) []pii.Type {
	t6, _ := tableColumns(p)
	rates := piiRates[t6]
	for attempt := 0; attempt < 64; attempt++ {
		var out []pii.Type
		for i, t := range piiTypes {
			if rng.Bool(rates[i]) {
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return []pii.Type{pii.Phone}
}

// toxicMode constrains whether a generated CTH may carry a toxic-content
// label. The boards generator concentrates toxic CTH in dedicated
// threads (whose response volume is boosted, §6.3), so it needs to force
// or forbid the toxic parent per thread.
type toxicMode int

const (
	toxicFree toxicMode = iota
	toxicForce
	toxicForbid
)

// cthDoc renders a CTH document's text and ground truth.
func (g *Generator) cthDoc(p Platform, rng *randx.Source) (string, GroundTruth) {
	return g.cthDocToxic(p, rng, toxicFree)
}

// cthDocToxic renders a CTH document under a toxic-label constraint.
func (g *Generator) cthDocToxic(p Platform, rng *randx.Source, tm toxicMode) (string, GroundTruth) {
	mode := synth.GenderedPronouns
	if rng.Bool(neutralPronounRate) {
		mode = synth.NeutralPronouns
	}
	targetID := g.newPersona(rng)
	persona := g.personas[targetID]
	gcls := persona.Gender
	if mode == synth.NeutralPronouns {
		gcls = gender.Unknown
	}
	label := g.sampleCTHLabel(p, gcls, rng)
	for tries := 0; tries < 50; tries++ {
		isToxic := label.HasParent(taxonomy.ToxicContent)
		if (tm == toxicForce && isToxic) || (tm == toxicForbid && !isToxic) || tm == toxicFree {
			break
		}
		label = g.sampleCTHLabel(p, gcls, rng)
	}
	if tm == toxicForce && !label.HasParent(taxonomy.ToxicContent) {
		label = label.Merge(taxonomy.NewLabel(taxonomy.SubHateSpeech))
	}
	text := synth.CTH(persona, label.Subs(), mode, rng)
	return text, GroundTruth{
		IsCTH:        true,
		CTHLabel:     label,
		TargetID:     targetID,
		TargetGender: persona.Gender,
	}
}

// doxDoc renders a dox document's text and ground truth. With a small
// probability (the paper found only 95 of 14,679 positives were both) the
// dox also carries an explicit call to harassment.
//
// Repeated doxes of the same persona reuse (and extend) the earlier dox's
// PII types — "an aggressor will post a partially completed dox and
// update it periodically with additional information" (§7.3) — and carry
// at least one social-network handle, the identity material by which
// reposts are recognisable.
func (g *Generator) doxDoc(p Platform, rng *randx.Source) (string, GroundTruth) {
	targetID := g.doxTarget(p, rng)
	persona := g.personas[targetID]
	types := g.samplePII(p, rng)
	if prev, ok := g.lastPII[targetID]; ok {
		types = unionPII(prev, types)
		if !hasOSN(types) {
			types = append(types, pii.Facebook)
		}
	}
	g.lastPII[targetID] = types
	text := synth.Dox(persona, types, doxStyleFor(p), rng)
	truth := GroundTruth{
		IsDox:        true,
		DoxPII:       types,
		TargetID:     targetID,
		TargetGender: persona.Gender,
	}
	// Dual-labelled posts (dox + explicit mobilizing language); excluded
	// on pastes, which the CTH task does not cover.
	if p != PlatformPastes && rng.Bool(0.012) {
		label := taxonomy.NewLabel(taxonomy.SubDoxing)
		text += ". " + synth.CTH(persona, label.Subs(), synth.GenderedPronouns, rng)
		truth.IsCTH = true
		truth.CTHLabel = label
	}
	g.recordDox(targetID, p)
	return text, truth
}

// unionPII merges two PII type sets preserving Table 6 order.
func unionPII(a, b []pii.Type) []pii.Type {
	have := map[pii.Type]bool{}
	for _, t := range a {
		have[t] = true
	}
	for _, t := range b {
		have[t] = true
	}
	var out []pii.Type
	for _, t := range pii.AllTypes() {
		if have[t] {
			out = append(out, t)
		}
	}
	return out
}

// hasOSN reports whether the set contains a linkable social handle.
func hasOSN(types []pii.Type) bool {
	for _, t := range types {
		switch t {
		case pii.Facebook, pii.Instagram, pii.Twitter, pii.YouTube:
			return true
		}
	}
	return false
}

// benignDoc renders a benign document.
func (g *Generator) benignDoc(p Platform, rng *randx.Source) (string, GroundTruth) {
	text := synth.Benign(benignFlavorFor(p), rng)
	return text, GroundTruth{HardNegative: looksMobilizing(text)}
}

// looksMobilizing flags benign text that carries mobilizing-language
// surface features (used for diagnostics on classifier false positives).
func looksMobilizing(text string) bool {
	for _, m := range []string{"we need to", "we should", "lets ", "we will", "we have to"} {
		if strings.Contains(text, m) {
			return true
		}
	}
	return false
}

// generateFlat produces a flat corpus (Gab, pastes): independent posts
// with positives interleaved at random positions.
func (g *Generator) generateFlat(p Platform) *Corpus {
	rng := g.rng.Split(string(p))
	total := g.volumeFor(p)
	nDox := g.plantedDox(p)
	nCTH := g.plantedCTH(p)
	if nDox+nCTH > total {
		total = nDox + nCTH + total/10 + 1
	}

	kinds := make([]int, 0, total) // 0 benign, 1 cth, 2 dox
	for i := 0; i < nCTH; i++ {
		kinds = append(kinds, 1)
	}
	for i := 0; i < nDox; i++ {
		kinds = append(kinds, 2)
	}
	for len(kinds) < total {
		kinds = append(kinds, 0)
	}
	randx.Shuffle(rng, kinds)

	ds := p.Dataset()
	domains := domainsFor(p)
	c := &Corpus{Dataset: ds, Docs: make([]Document, 0, total)}
	for i, kind := range kinds {
		drng := rng.SplitN("doc", i)
		var text string
		var truth GroundTruth
		switch kind {
		case 1:
			text, truth = g.cthDoc(p, drng)
		case 2:
			text, truth = g.doxDoc(p, drng)
		default:
			text, truth = g.benignDoc(p, drng)
		}
		c.Docs = append(c.Docs, Document{
			ID:       docID(p, i),
			Dataset:  ds,
			Platform: p,
			Domain:   domains[drng.Intn(len(domains))],
			Author:   synth.SyntheticUsername(drng),
			Date:     dateFor(ds, drng.Float64()),
			Text:     text,
			Truth:    truth,
		})
	}
	return c
}

// generateChat produces the chat corpus: Discord and Telegram channels.
func (g *Generator) generateChat() *Corpus {
	c := &Corpus{Dataset: Chat}
	for _, p := range []Platform{PlatformDiscord, PlatformTelegram} {
		sub := g.generateFlat(p)
		c.Docs = append(c.Docs, sub.Docs...)
	}
	return c
}

// domainsFor returns the synthetic collection domains/channels for a
// platform (the paper: 43 board domains, 41 paste domains, 2,916 Telegram
// channels; we scale channel counts down with volume).
func domainsFor(p Platform) []string {
	n := 8
	prefix := string(p)
	switch p {
	case PlatformBoards:
		n = 43
		prefix = "board"
	case PlatformPastes:
		n = 41
		prefix = "paste"
	case PlatformTelegram:
		n = 30
		prefix = "tg-channel"
	case PlatformDiscord:
		n = 15
		prefix = "discord-server"
	case PlatformGab:
		return []string{"gab.example"}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%02d.example", prefix, i+1)
	}
	return out
}
