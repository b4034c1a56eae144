package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"harassrepro/bench/benchkit"
	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/randx"
)

const (
	ingestSegmentDocs = 1000 // one fsynced segment + index + manifest commit per 1,000 documents
	queriesPerRound   = 400  // a quarter each: single term, AND, OR, NOT
)

// storeQuery is one boolean query with the answer a naive scan gives.
type storeQuery struct {
	spec  string
	class int   // 0 single, 1 AND, 2 OR, 3 NOT
	want  []int // corpus positions, ascending = store order
}

var queryClasses = [4]string{"single", "and", "or", "not"}

// indexTerms is the benchmark's own statement of which terms a
// document is findable by — its word tokens (runs of ASCII letters,
// digits, '_' and non-ASCII bytes, ASCII lower-cased) plus its
// dataset:, platform: and domain: field terms. It is written from the
// store's documented contract, not by calling the store, so the oracle
// built on it is independent of the index it checks.
func indexTerms(d *corpus.Document, emit func(string)) {
	text := d.Text
	start := -1
	for i := 0; i <= len(text); i++ {
		word := false
		if i < len(text) {
			c := text[i]
			word = c >= 0x80 || c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		}
		if word && start < 0 {
			start = i
		} else if !word && start >= 0 {
			emit(strings.ToLower(text[start:i]))
			start = -1
		}
	}
	emit("dataset:" + string(d.Dataset))
	emit("platform:" + string(d.Platform))
	if d.Domain != "" {
		emit("domain:" + d.Domain)
	}
}

// buildQueries draws the seeded query set: terms come from the corpus's
// mid-frequency tokens (found in 0.2%–5% of documents — rare enough to
// be selective, common enough to return results) and its platform: and
// dataset: field terms; then every query is answered by scanning the
// corpus and filtering.
func buildQueries(docs []corpus.Document, seed uint64, n int) []storeQuery {
	df := map[string]int{}
	seen := map[string]bool{}
	for i := range docs {
		clear(seen)
		indexTerms(&docs[i], func(t string) {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		})
	}
	var tokens, fields []string
	lo, hi := max(2, len(docs)/500), max(3, len(docs)/20)
	for t, c := range df {
		switch {
		case strings.HasPrefix(t, "platform:") || strings.HasPrefix(t, "dataset:"):
			fields = append(fields, t)
		case !strings.Contains(t, ":") && c >= lo && c <= hi:
			tokens = append(tokens, t)
		}
	}
	// Rarest first; ties by spelling, so the order is the seed's alone.
	sort.Slice(tokens, func(i, j int) bool {
		if df[tokens[i]] != df[tokens[j]] {
			return df[tokens[i]] < df[tokens[j]]
		}
		return tokens[i] < tokens[j]
	})
	sort.Strings(fields)
	if len(tokens) == 0 || len(fields) == 0 {
		return nil
	}

	// Every query is anchored on a token, so a result set is at most a
	// token's 5% of the corpus; every other AND narrows by a field term
	// and every other NOT excludes one. (A bare field term would return
	// half the corpus, and a handful of those would be the whole tail.)
	// Anchors are drawn one from each of n equal slices of the
	// rarest-to-commonest order, second terms from the slices in a
	// shuffled order: every seed's query set then has the same mix of
	// selectivities, and query latency — which follows result size —
	// does not swing with the luck of the draw.
	rng := randx.New(seed).Split("bench-queries")
	slice := func(i int) string {
		lo, hi := i*len(tokens)/n, (i+1)*len(tokens)/n
		return tokens[lo+rng.Intn(max(1, hi-lo))]
	}
	second := shuffledOrder(n, seed)
	queries := make([]storeQuery, n)
	need := map[string][]int{}
	for i := range queries {
		q := &queries[i]
		q.class = i % 4
		a, b := slice(i), slice(second[i])
		if (q.class == 1 || q.class == 3) && (i/4)%2 == 1 {
			b = randx.Pick(rng, fields)
		}
		switch q.class {
		case 0:
			q.spec = a
		case 1:
			q.spec = a + "," + b
		case 2:
			q.spec = a + "|" + b
		case 3:
			q.spec = a + ",-" + b
		}
		need[a], need[b] = nil, nil
	}
	// The oracle's postings: one scan of the corpus, keeping for each
	// needed term the positions of the documents that carry it.
	for i := range docs {
		clear(seen)
		indexTerms(&docs[i], func(t string) {
			if _, wanted := need[t]; wanted && !seen[t] {
				seen[t] = true
				need[t] = append(need[t], i)
			}
		})
	}
	for i := range queries {
		q := &queries[i]
		var a, b []int
		switch q.class {
		case 0:
			q.want = need[q.spec]
			continue
		case 1:
			x, y, _ := strings.Cut(q.spec, ",")
			a, b = need[x], need[y]
		case 2:
			x, y, _ := strings.Cut(q.spec, "|")
			a, b = need[x], need[y]
		case 3:
			x, y, _ := strings.Cut(q.spec, ",-")
			a, b = need[x], need[y]
		}
		inB := make(map[int]bool, len(b))
		for _, p := range b {
			inB[p] = true
		}
		switch q.class {
		case 1:
			for _, p := range a {
				if inB[p] {
					q.want = append(q.want, p)
				}
			}
		case 2:
			q.want = append(slices.Clone(a), b...)
			slices.Sort(q.want)
			q.want = slices.Compact(q.want)
		case 3:
			for _, p := range a {
				if !inB[p] {
					q.want = append(q.want, p)
				}
			}
		}
	}
	return queries
}

// storeRound is what one round measured.
type storeRound struct {
	ingest, open, scan, queries, total time.Duration
	queryLat                           [4][]time.Duration
	results                            int
	segBytes, idxBytes, manifestBytes  int64
	segments                           int
	digest                             uint32
	failed                             int64
	why                                string
}

// runStoreRound is one round of writes beside reads: create a store,
// ingest the JSONL (fsynced commits), close, reopen, scan it once
// sequentially, answer the boolean queries, close. The store is left
// on disk for the caller.
func runStoreRound(dir string, jsonl []byte, docs []corpus.Document, queries []storeQuery) (storeRound, error) {
	var r storeRound
	t0 := time.Now()
	s, err := store.Create(dir)
	if err != nil {
		return r, err
	}
	added, bad, err := store.IngestJSONL(s, bytes.NewReader(jsonl), ingestSegmentDocs)
	if err != nil {
		return r, err
	}
	if err := s.Close(); err != nil {
		return r, err
	}
	r.ingest = time.Since(t0)
	if added != len(docs) || len(bad) != 0 {
		r.failed += int64(len(docs))
		r.why = fmt.Sprintf("ingest committed %d of %d documents, %d bad lines", added, len(docs), len(bad))
	}

	t1 := time.Now()
	s, err = store.Open(dir)
	if err != nil {
		return r, err
	}
	defer s.Close()
	r.open = time.Since(t1)

	t2 := time.Now()
	pos := 0
	err = s.Scan(func(d *corpus.Document, _ store.DocRef) error {
		if pos >= len(docs) || d.ID != docs[pos].ID || d.Text != docs[pos].Text {
			if r.why == "" {
				r.why = fmt.Sprintf("scan delivered %s at position %d", d.ID, pos)
			}
			r.failed++
		}
		pos++
		return nil
	})
	if err != nil {
		return r, err
	}
	r.scan = time.Since(t2)
	if pos != len(docs) {
		r.failed += int64(len(docs))
		r.why = fmt.Sprintf("scan delivered %d of %d documents", pos, len(docs))
	}

	t3 := time.Now()
	for i := range queries {
		q := &queries[i]
		tq := time.Now()
		parsed, err := store.ParseQuery(q.spec)
		if err != nil {
			return r, err
		}
		k, wrong := 0, false
		err = s.LookupQueryDocs(parsed, func(d *corpus.Document, _ store.DocRef) error {
			if k >= len(q.want) || d.ID != docs[q.want[k]].ID {
				wrong = true
			}
			k++
			return nil
		})
		if err != nil {
			return r, err
		}
		r.queryLat[q.class] = append(r.queryLat[q.class], time.Since(tq))
		r.results += k
		if wrong || k != len(q.want) {
			r.failed++
			if r.why == "" {
				r.why = fmt.Sprintf("query %q returned %d documents, a scan-and-filter finds %d", q.spec, k, len(q.want))
			}
		}
	}
	r.queries = time.Since(t3)
	if err := s.Close(); err != nil {
		return r, err
	}
	r.total = time.Since(t0)

	// Directory accounting and digest, outside the round's clock.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return r, err
	}
	sum := crc32.New(castagnoli)
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return r, err
		}
		fmt.Fprintf(sum, "%s %d\n", e.Name(), len(data))
		sum.Write(data)
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			r.segBytes += int64(len(data))
			r.segments++
		case strings.HasSuffix(e.Name(), ".idx"):
			r.idxBytes += int64(len(data))
		default:
			r.manifestBytes += int64(len(data))
		}
	}
	r.digest = sum.Sum32()
	return r, nil
}

func runStore(ctx context.Context, rc *runConfig) (*outcome, error) {
	o := newOutcome()
	in := generateInputs(rc)
	o.docs, o.textBytes = len(in.docs), in.textBytes
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf, in.docs, true); err != nil {
		return nil, err
	}
	jsonl := buf.Bytes()
	nq := queriesPerRound
	if rc.smoke {
		nq = 40
	}
	queries := buildQueries(in.docs, rc.seed, nq)
	if queries == nil {
		return nil, fmt.Errorf("a corpus of %d documents has no mid-frequency tokens to query", len(in.docs))
	}
	o.notes["flush_policy"] = fmt.Sprintf("every %d-document segment is written, fsynced with its index, and committed by an fsynced manifest rename; the store lives in a temporary directory on the sandbox disk, where reads come from the page cache and fsync is cheaper than on a real device", ingestSegmentDocs)

	// A first round, untimed: it warms the page cache and allocator,
	// fixes the digest every later round must reproduce, and leaves a
	// store to time set-up (process start + Open) against.
	dir := filepath.Join(rc.tmp, "store-round")
	first, err := runStoreRound(dir, jsonl, in.docs, queries)
	if err != nil {
		return nil, err
	}
	start, err := processStart(setupReps)
	if err != nil {
		return nil, err
	}
	var opens []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		s.Close()
	}
	o.set("setup_s", start+benchkit.Median(opens))
	o.set("store.open_ms", benchkit.Median(opens)*1000)

	window := rc.window(1)
	if rc.trace {
		window = rc.window(0.5)
	}
	tr := benchkit.NewTrace()
	var rounds []storeRound
	cpu0, w0 := selfCPU(), time.Now()
	for i := 0; time.Since(w0) < window || i < 2; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		startAt := tr.Since()
		r, err := runStoreRound(dir, jsonl, in.docs, queries)
		if err != nil {
			return nil, err
		}
		if rc.trace {
			id := tr.Add("round", 0, i+1, startAt, startAt+r.total)
			at := startAt
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"store.ingest", r.ingest}, {"store.open", r.open}, {"store.scan", r.scan}, {"store.queries", r.queries}} {
				tr.Add(ph.name, id, i+1, at, at+ph.d)
				at += ph.d
			}
		}
		o.attempted += int64(len(in.docs) + len(queries))
		o.fail(r.failed, "%s", r.why)
		if r.digest != first.digest {
			o.fail(int64(len(in.docs)), "round %d's store (crc %08x) is not byte-identical to the first (crc %08x)", i, r.digest, first.digest)
		}
		rounds = append(rounds, r)
	}
	cpu := selfCPU() - cpu0

	var total, ingest, scan, queried time.Duration
	var lat []float64
	var classLat [4][]time.Duration
	results := 0
	for _, r := range rounds {
		total += r.total
		ingest += r.ingest
		scan += r.scan
		queried += r.queries
		results += r.results
		for c := range r.queryLat {
			classLat[c] = append(classLat[c], r.queryLat[c]...)
			for _, d := range r.queryLat[c] {
				lat = append(lat, float64(d)/float64(time.Millisecond))
			}
		}
	}
	n := float64(len(rounds) * len(in.docs))
	slices.Sort(lat)
	tail := benchkit.TailPercentile(lat, 99, 10)
	o.set("docs_per_s", n/total.Seconds())
	o.set("p50_ms", benchkit.Percentile(lat, 50))
	o.set("p90_ms", benchkit.Percentile(lat, 90))
	o.set("lat.p99_ms", tail.Value)
	o.set("cpu_us_per_doc", cpu/n*1e6)
	o.set("peak_rss_mb", selfPeakRSSMB())
	o.notes["latency"] = fmt.Sprintf("the operation is one boolean query (ParseQuery + LookupQueryDocs, results fetched): %d samples over %d rounds; p%.2f is %.3f ms with %d samples beyond it", tail.N, len(rounds), tail.Percentile, tail.Value, tail.Beyond)
	o.notes["throughput"] = fmt.Sprintf("documents through a whole round (ingest %d%%, reopen+scan %d%%, %d queries %d%% of the time)", pct(ingest, total), pct(total-ingest-queried, total), len(queries), pct(queried, total))

	o.set("store.ingest_docs_per_s", n/ingest.Seconds())
	o.set("store.ingest_jsonl_ns_per_doc", float64(ingest.Nanoseconds())/n)
	o.set("store.scan_mb_per_s", float64(len(rounds))*float64(in.textBytes)/1e6/scan.Seconds())
	o.set("store.scan_ns_per_doc", float64(scan.Nanoseconds())/n)
	last := rounds[len(rounds)-1]
	o.set("store.seg_bytes", float64(last.segBytes))
	o.set("store.idx_bytes", float64(last.idxBytes))
	o.set("store.segments", float64(last.segments))
	o.set("store.disk_bytes_per_text_byte", float64(last.segBytes+last.idxBytes+last.manifestBytes)/float64(in.textBytes))
	o.set("store.results_per_query", float64(results)/float64(len(rounds)*len(queries)))
	for c, name := range queryClasses {
		o.set("store.query_"+name+"_us", medianIn(classLat[c], time.Microsecond))
	}

	if rc.trace {
		if err := storeLayers(rc, o, jsonl, dir, queries); err != nil {
			return nil, err
		}
		if err := rc.writeTrace(o, "store-ingest-query", tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func pct(part, whole time.Duration) int {
	if whole == 0 {
		return 0
	}
	return int(100 * part / whole)
}

// storeLayers times the store's layers alone: JSONL decode, the
// per-segment Append that IngestJSONL loops over (so commit latency has
// a distribution), and the index paths under a boolean query — posting
// iteration, posting + fetch, point reads. dir holds the last round's
// store.
func storeLayers(rc *runConfig, o *outcome, jsonl []byte, dir string, queries []storeQuery) error {
	t0 := time.Now()
	docs, bad, err := corpus.ReadJSONLLenient(bytes.NewReader(jsonl))
	if err != nil || len(bad) != 0 {
		return fmt.Errorf("decoding the ingest file: %v (%d bad lines)", err, len(bad))
	}
	decode := time.Since(t0)
	o.set("corpus.jsonl_decode_mb_per_s", float64(len(jsonl))/1e6/decode.Seconds())
	o.set("corpus.jsonl_decode_us", float64(decode.Microseconds())/float64(len(docs)))

	appendDir := filepath.Join(rc.tmp, "store-append")
	s, err := store.Create(appendDir)
	if err != nil {
		return err
	}
	var commits []float64
	var appendTotal time.Duration
	for lo := 0; lo < len(docs); lo += ingestSegmentDocs {
		hi := min(lo+ingestSegmentDocs, len(docs))
		t0 := time.Now()
		if _, err := s.Append(docs[lo:hi]); err != nil {
			s.Close()
			return err
		}
		d := time.Since(t0)
		appendTotal += d
		commits = append(commits, float64(d)/float64(time.Millisecond))
	}
	if err := s.Close(); err != nil {
		return err
	}
	slices.Sort(commits)
	o.set("store.append_ns_per_doc", float64(appendTotal.Nanoseconds())/float64(len(docs)))
	o.set("store.commit_ms_p50", benchkit.Percentile(commits, 50))
	o.set("store.commit_ms_p99", benchkit.TailPercentile(commits, 99, 10).Value)

	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	// The distinct terms of the query set, looked up one by one.
	termSet := map[string]bool{}
	for _, q := range queries {
		for _, t := range strings.FieldsFunc(q.spec, func(r rune) bool { return r == ',' || r == '|' }) {
			termSet[strings.TrimPrefix(t, "-")] = true
		}
	}
	terms := make([]string, 0, len(termSet))
	for t := range termSet {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var refs []store.DocRef
	t0 = time.Now()
	for _, t := range terms {
		st.Lookup(t, func(ref store.DocRef) bool {
			refs = append(refs, ref)
			return true
		})
	}
	if len(refs) > 0 {
		o.set("store.lookup_ns_per_posting", float64(time.Since(t0).Nanoseconds())/float64(len(refs)))
	}
	fetched := 0
	t0 = time.Now()
	for _, t := range terms {
		if err := st.LookupDocs(t, func(*corpus.Document, store.DocRef) error { fetched++; return nil }); err != nil {
			return err
		}
	}
	if fetched > 0 {
		o.set("store.lookup_docs_ns_per_doc", float64(time.Since(t0).Nanoseconds())/float64(fetched))
	}
	// Point reads in a seeded random order, so they do not ride on the
	// sequential locality of posting order.
	rng := randx.New(rc.seed).Split("bench-point-reads")
	randx.Shuffle(rng, refs)
	refs = refs[:min(len(refs), 20000)]
	t0 = time.Now()
	for _, ref := range refs {
		if _, err := st.Doc(ref); err != nil {
			return err
		}
	}
	if len(refs) > 0 {
		o.set("store.doc_point_ns", float64(time.Since(t0).Nanoseconds())/float64(len(refs)))
	}
	return nil
}
