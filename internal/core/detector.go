package core

import "harassrepro/internal/detector"

// SaveModels writes the trained filtering classifiers and their
// configuration into dir (created if needed): the release artifact
// detector.Load reads.
func (p *Pipeline) SaveModels(dir string) error {
	return p.Detector().Save(dir)
}

// Detector builds the deployable detector directly from the trained
// pipeline, without the SaveModels/detector.Load disk round-trip —
// what a serving process that trains at startup (cmd/harassd without
// -models) uses. Scores are identical to a detector loaded from a
// SaveModels directory of the same pipeline.
func (p *Pipeline) Detector() *detector.Detector {
	doxThresholds, cthThresholds := map[string]float64{}, map[string]float64{}
	for plat, r := range p.Dox.Results {
		doxThresholds[string(plat)] = r.Threshold
	}
	for plat, r := range p.CTH.Results {
		cthThresholds[string(plat)] = r.Threshold
	}
	return detector.New(p.Tokenizer, p.Dox.Model, p.CTH.Model, p.Dox.TextLen, p.CTH.TextLen, doxThresholds, cthThresholds)
}

// The internal/detector names bench/ still spells with core.
type (
	Detector      = detector.Detector      // for bench/ until the next [benchmark] change
	StreamDoc     = detector.StreamDoc     // for bench/ until the next [benchmark] change
	StreamOptions = detector.StreamOptions // for bench/ until the next [benchmark] change
)

// LoadDetector is detector.Load, for bench/ until the next [benchmark] change.
func LoadDetector(dir string) (*Detector, error) { return detector.Load(dir) }
