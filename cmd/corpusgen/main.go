// Command corpusgen generates the synthetic platform corpora and writes
// them as JSON Lines, one document per line, for use by external tools
// — or into a persistent segmented corpus store.
//
// Usage:
//
//	corpusgen [-seed N] [-volume-scale N] [-positive-scale N]
//	          [-dataset boards|blogs|chat|gab|pastes|all] [-truth]
//	corpusgen -store DIR [-append] [-seg-docs N] [generation flags]
//	corpusgen -store DIR -ingest FILE [-seg-docs N]
//
// By default ground-truth labels are omitted (the filtering task's
// input); -truth includes them for evaluation tooling.
//
// With -store, the corpora are committed to the on-disk store at DIR
// (internal/corpus/store) instead of stdout: a one-shot build creates
// the store, -append adds the generated documents to an existing one
// as a new synthetic "day" (run with a different -seed), and -ingest
// appends external JSONL, quarantining malformed lines with their line
// number and byte offset. Pipelines stream from the store via
// harassrepro -store / core.Options.StorePath.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
)

// datasets is the emit order, and the valid -dataset values besides "all".
var datasets = []corpus.Dataset{corpus.Boards, corpus.Blogs, corpus.Chat, corpus.Gab, corpus.Pastes}

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "random seed")
		volScale  = flag.Int("volume-scale", 10000, "divide Table 1 raw volumes by this factor")
		posScale  = flag.Int("positive-scale", 10, "divide planted positive volumes by this factor")
		blogScale = flag.Int("blog-scale", 10, "divide blog post volumes by this factor")
		dataset   = flag.String("dataset", "all", "data set to emit (boards|blogs|chat|gab|pastes|all)")
		truth     = flag.Bool("truth", false, "include ground-truth labels")
		storeDir  = flag.String("store", "", "write into the segmented corpus store at this directory instead of stdout")
		appendDay = flag.Bool("append", false, "with -store: append to an existing store instead of creating one")
		ingest    = flag.String("ingest", "", "with -store: append external JSONL from this file instead of generating")
		segDocs   = flag.Int("seg-docs", 0, "with -store: documents per segment (0 = default)")
	)
	flag.Parse()

	if *dataset != "all" && !slices.Contains(datasets, corpus.Dataset(*dataset)) {
		fmt.Fprintf(os.Stderr, "corpusgen: unknown dataset %q (want boards|blogs|chat|gab|pastes|all)\n", *dataset)
		os.Exit(2)
	}
	if *storeDir == "" && (*appendDay || *ingest != "" || *segDocs != 0) {
		fmt.Fprintln(os.Stderr, "corpusgen: -append/-ingest/-seg-docs require -store")
		os.Exit(2)
	}
	if *storeDir != "" {
		if err := runStore(*storeDir, *appendDay, *ingest, *segDocs, corpus.Config{
			Seed:          *seed,
			VolumeScale:   *volScale,
			PositiveScale: *posScale,
		}, *blogScale); err != nil {
			fmt.Fprintf(os.Stderr, "corpusgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	gen := corpus.NewGenerator(corpus.Config{
		Seed:          *seed,
		VolumeScale:   *volScale,
		PositiveScale: *posScale,
	})
	corpora := gen.Generate()
	corpora[corpus.Blogs] = gen.GenerateBlogs(corpus.DefaultBlogSpecs(*blogScale))

	for _, ds := range datasets {
		if *dataset != "all" && *dataset != string(ds) {
			continue
		}
		if err := corpus.WriteJSONL(os.Stdout, corpora[ds].Docs, *truth); err != nil {
			fmt.Fprintf(os.Stderr, "corpusgen: %v\n", err)
			os.Exit(1)
		}
	}
}

// runStore is the -store write path: one-shot build, incremental
// append of a new synthetic day, or external JSONL ingest.
func runStore(dir string, appendDay bool, ingestPath string, segDocs int, cfg corpus.Config, blogScale int) error {
	var s *store.Store
	var err error
	if appendDay || ingestPath != "" {
		s, err = store.Open(dir)
	} else {
		s, err = store.Create(dir)
	}
	if err != nil {
		return err
	}
	defer s.Close()
	for _, torn := range s.Recovery().Torn {
		fmt.Fprintf(os.Stderr, "corpusgen: recovered torn segment %s: %d docs salvaged to quarantine/\n",
			torn.Name, torn.SalvagedDocs)
	}
	before := s.Docs()

	if ingestPath != "" {
		f, err := os.Open(ingestPath)
		if err != nil {
			return err
		}
		defer f.Close()
		added, bad, err := store.IngestJSONL(s, f, segDocs)
		if err != nil {
			return err
		}
		for _, le := range bad {
			fmt.Fprintf(os.Stderr, "corpusgen: quarantined %v\n", le)
		}
		fmt.Printf("store %s: ingested %d docs (%d lines quarantined), generation %d, %d segments, %d docs total\n",
			dir, added, len(bad), s.Generation(), len(s.Segments()), s.Docs())
		return nil
	}

	gen := corpus.NewGenerator(cfg)
	corpora := gen.Generate()
	blogs := gen.GenerateBlogs(corpus.DefaultBlogSpecs(blogScale))
	if err := store.WriteCorpora(s, corpora, blogs, segDocs); err != nil {
		return err
	}
	fmt.Printf("store %s: wrote %d docs (seed %d), generation %d, %d segments, %d docs total\n",
		dir, s.Docs()-before, cfg.Seed, s.Generation(), len(s.Segments()), s.Docs())
	return nil
}
