package core

import (
	"fmt"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
)

// Store-backed corpus loading. When Options.StorePath names a
// segmented corpus store (built by corpusgen -store), the pipeline
// streams its input from disk instead of regenerating it from the
// seed: StageCorpora becomes one store.Scan that groups documents by
// dataset, and StageBlogs hands over the blogs corpus that scan set
// aside. The store was written in the generator's emit order, so the
// loaded corpora are element-for-element identical to what Generate /
// GenerateBlogs would have produced — which is what keeps every
// downstream output byte-identical (pinned by golden_store_test.go).

// loadStoreCorpora opens the store and streams every document into
// per-dataset corpora, returning the blogs corpus separately (it is a
// distinct pipeline stage, not part of the machine-filtered map).
func loadStoreCorpora(dir string) (map[corpus.Dataset]*corpus.Corpus, *corpus.Corpus, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: corpus store: %w", err)
	}
	defer s.Close()
	byDS := make(map[corpus.Dataset]*corpus.Corpus)
	for _, ds := range corpus.Datasets() {
		byDS[ds] = &corpus.Corpus{Dataset: ds}
	}
	err = s.Scan(func(d *corpus.Document, _ store.DocRef) error {
		c := byDS[d.Dataset]
		if c == nil {
			c = &corpus.Corpus{Dataset: d.Dataset}
			byDS[d.Dataset] = c
		}
		c.Docs = append(c.Docs, *d)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: corpus store: %w", err)
	}
	blogs := byDS[corpus.Blogs]
	delete(byDS, corpus.Blogs)
	return byDS, blogs, nil
}

// storeFingerprint is the graph fingerprint input for store-backed
// runs: the manifest generation joins the config, so cached artifacts
// invalidate exactly when segments are appended to the store.
type storeFingerprint struct {
	Config     Config
	StorePath  string
	Generation uint64
}

// probeStoreGeneration reads the store's manifest generation without
// opening or verifying the store (that happens inside StageCorpora).
func probeStoreGeneration(dir string) (uint64, error) {
	gen, _, err := store.ReadManifest(dir)
	if err != nil {
		return 0, fmt.Errorf("core: corpus store: %w", err)
	}
	return gen, nil
}
