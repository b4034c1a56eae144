package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// generatedDigests pins the SHA-256 of WriteJSONL (with truth) over
// Generate() in Datasets() order followed by GenerateBlogs, at the
// quick scale (core.QuickConfig: volume 40,000, positives 20, blogs
// 20). The experiment goldens only see what the pipeline derives from
// these corpora; this pins the generator's bytes themselves, so any
// drift in formatting or in the order of random draws fails here.
var generatedDigests = map[uint64]string{
	1:  "fca9b6e6b8bcfb6136888b65734a302ec816d489bde2a17fafaf4732e68f26d2",
	7:  "0b2246c3701839a85e0bd786d93b8452439f3b1d53072bfb68f949e2527f330b",
	42: "06184c937e8e3ef3d917eee650763609d5b7350a13058550d0a0849d6544afac",
}

func TestGeneratedBytesPinned(t *testing.T) {
	for seed, want := range generatedDigests {
		g := NewGenerator(Config{Seed: seed, VolumeScale: 40_000, PositiveScale: 20})
		byDS := g.Generate()
		blogs := g.GenerateBlogs(DefaultBlogSpecs(20))
		h := sha256.New()
		for _, ds := range Datasets() {
			if c, ok := byDS[ds]; ok {
				if err := WriteJSONL(h, c.Docs, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := WriteJSONL(h, blogs.Docs, true); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: generated corpora digest %s, want %s", seed, got, want)
		}
	}
}
