package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"harassrepro/bench/benchkit"
	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
)

// sinkLine is one scored document as the bulk re-score writes it.
type sinkLine struct {
	ID       string  `json:"id"`
	Platform string  `json:"platform"`
	CTH      float64 `json:"cth"`
	Dox      float64 `json:"dox"`
	FlagCTH  bool    `json:"flag_cth"`
	FlagDox  bool    `json:"flag_dox"`
}

// passResult is one complete pass over the store.
type passResult struct {
	d     time.Duration
	docs  int
	bytes int64
	crc   uint32 // of the sink file's bytes: identical output ⇔ identical crc
	lines []sinkLine
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rescorePass is the paper's filter step as the offline path ships it:
// store segments → ScanParallel → Detector.ScoreStream (scoring only,
// ordered) → one JSON line per document in a buffered file. keep
// retains the lines for the quality figures.
func rescorePass(ctx context.Context, det *core.Detector, st *store.Store, sinkPath string, scanWorkers, scoreWorkers int, keep bool) (passResult, error) {
	var res passResult
	t0 := time.Now()
	f, err := os.Create(sinkPath)
	if err != nil {
		return res, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	sum := crc32.New(castagnoli)
	enc := json.NewEncoder(io.MultiWriter(bw, sum))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Sized to ride out a segment's worth of decode arriving in a
	// burst ahead of the scorers without making the scan wait.
	in := make(chan core.StreamDoc, 256)
	scanErr := make(chan error, 1)
	go func() {
		defer close(in)
		scanErr <- st.ScanParallel(scanWorkers, func(d *corpus.Document, _ store.DocRef) error {
			select {
			case in <- core.StreamDoc{ID: d.ID, Platform: string(d.Platform), Text: d.Text}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	for r := range det.ScoreStream(ctx, in, core.StreamOptions{Workers: scoreWorkers, Seed: trainSeed, Ordered: true}) {
		if r.Dead != nil {
			return res, fmt.Errorf("document %s quarantined at %s: %v", r.Item.ID, r.Dead.Stage, r.Dead.Err)
		}
		line := sinkLine{
			ID: r.Item.ID, Platform: r.Item.Platform, CTH: r.Item.CTH, Dox: r.Item.Dox,
			FlagCTH: r.Item.CTH >= det.CTHThreshold(r.Item.Platform),
			FlagDox: r.Item.Dox >= det.DoxThreshold(r.Item.Platform),
		}
		if err := enc.Encode(&line); err != nil {
			return res, err
		}
		if keep {
			res.lines = append(res.lines, line)
		}
		res.docs++
	}
	if err := <-scanErr; err != nil {
		return res, err
	}
	if err := bw.Flush(); err != nil {
		return res, err
	}
	fi, err := f.Stat()
	if err != nil {
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	res.d, res.crc, res.bytes = time.Since(t0), sum.Sum32(), fi.Size()
	return res, nil
}

// f1 of flagged against truth.
func f1(tp, fp, fn int) float64 {
	if 2*tp+fp+fn == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}

func runOffline(ctx context.Context, rc *runConfig) (*outcome, error) {
	o := newOutcome()
	in := generateInputs(rc)
	o.docs, o.textBytes = len(in.docs), in.textBytes
	m, err := trainModels(rc)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(rc.tmp, "store")
	built, err := store.Create(dir)
	if err != nil {
		return nil, err
	}
	if err := store.WriteCorpora(built, in.corpora, in.blogs, 0); err != nil {
		return nil, err
	}
	if err := built.Close(); err != nil {
		return nil, err
	}

	// Set-up: what a re-score job pays before its first document —
	// process start, loading the classifiers, opening the store.
	start, err := processStart(setupReps)
	if err != nil {
		return nil, err
	}
	var det *core.Detector
	var st *store.Store
	var opens, storeOpens []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.Close()
		}
		t0 := time.Now()
		if det, err = core.LoadDetector(m.dir); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if st, err = store.Open(dir); err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		storeOpens = append(storeOpens, float64(time.Since(t1))/float64(time.Millisecond))
	}
	defer st.Close()
	o.set("setup_s", start+benchkit.Median(opens))
	o.set("store.open_ms", benchkit.Median(storeOpens))
	if st.Docs() != len(in.docs) {
		return nil, fmt.Errorf("store holds %d documents, corpus %d", st.Docs(), len(in.docs))
	}

	// Reference: one single-threaded pass. Every timed pass must write
	// byte-identical output; quality is computed from it once.
	sink := filepath.Join(rc.tmp, "rescored.jsonl")
	ref, err := rescorePass(ctx, det, st, sink, 1, 1, true)
	if err != nil {
		return nil, err
	}
	var cth, dox [3]int // tp, fp, fn
	tally := func(c *[3]int, flagged, truth bool) {
		switch {
		case flagged && truth:
			c[0]++
		case flagged:
			c[1]++
		case truth:
			c[2]++
		}
	}
	// Quality is judged where the paper judges it (Table 4): on the
	// platforms a task selected a threshold for. The CTH task has none
	// for pastes, and neither has one for blogs.
	cthScope, doxScope := det.TaskThresholds(annotate.TaskCTH), det.TaskThresholds(annotate.TaskDox)
	o.attempted += int64(len(ref.lines))
	for i, l := range ref.lines {
		d := &in.docs[i]
		if l.ID != d.ID || l.CTH < 0 || l.CTH > 1 || l.Dox < 0 || l.Dox > 1 {
			o.fail(1, "re-scored line %d is %+v, want id %s and scores in [0,1]", i, l, d.ID)
		}
		if _, ok := cthScope[l.Platform]; ok {
			tally(&cth, l.FlagCTH, d.Truth.IsCTH)
		}
		if _, ok := doxScope[l.Platform]; ok {
			tally(&dox, l.FlagDox, d.Truth.IsDox)
		}
	}
	if len(ref.lines) != len(in.docs) {
		o.fail(1, "re-scored %d of %d documents", len(ref.lines), len(in.docs))
	}
	o.set("quality.f1_cth", f1(cth[0], cth[1], cth[2]))
	o.set("quality.f1_dox", f1(dox[0], dox[1], dox[2]))
	o.set("core.flagged_cth", float64(cth[0]+cth[1]))
	o.set("core.flagged_dox", float64(dox[0]+dox[1]))

	// The timed window: complete passes at the shipped defaults
	// (GOMAXPROCS scan and scoring workers) until the seconds are up.
	window := rc.window(1)
	tr := benchkit.NewTrace()
	if rc.trace {
		window = rc.window(0.3)
	}
	var all []time.Duration
	cpu0, w0 := selfCPU(), time.Now()
	for pass := 0; time.Since(w0) < window || pass < 2; pass++ {
		startAt := tr.Since()
		res, err := rescorePass(ctx, det, st, sink, 0, 0, false)
		if err != nil {
			return nil, err
		}
		tr.Add("pass", 0, pass+1, startAt, tr.Since())
		o.attempted += int64(res.docs)
		if res.crc != ref.crc || res.docs != ref.docs {
			o.fail(int64(ref.docs), "pass %d wrote %d documents crc %08x, the single-threaded reference %d crc %08x", pass, res.docs, res.crc, ref.docs, ref.crc)
		}
		all = append(all, res.d)
	}
	cpu := selfCPU() - cpu0
	var total time.Duration
	for _, d := range all {
		total += d
	}
	docsDone := float64(len(all) * ref.docs)
	ms := make([]float64, len(all))
	for i, d := range all {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(ms)
	o.set("docs_per_s", docsDone/total.Seconds())
	o.set("p50_ms", benchkit.Median(ms))
	o.set("p90_ms", benchkit.Percentile(ms, 90))
	o.set("lat.p99_ms", benchkit.TailPercentile(ms, 99, 10).Value)
	o.set("cpu_us_per_doc", cpu/docsDone*1e6)
	o.notes["latency"] = fmt.Sprintf("the operation is one complete pass over the store: %d passes, so p90 is the slowest or second-slowest pass and no higher percentile has ten samples beyond it", len(ms))
	o.notes["sink"] = fmt.Sprintf("%d bytes of JSON lines per pass to a 64 KiB-buffered file, not fsynced", ref.bytes)

	if rc.trace {
		if err := offlineLayers(ctx, rc, o, in, m, det, st, ref, tr); err != nil {
			return nil, err
		}
	}
	o.set("peak_rss_mb", selfPeakRSSMB())
	return o, nil
}

// offlineLayers is the offline waterfall. The path runs in this
// process, so each layer is timed by calling it alone over the whole
// corpus: scan with a no-op callback, ScoreBatch and ScoreStream on
// in-memory documents, every stage function, the sink encoder. The
// end-to-end figure they must add up to is the single-threaded pass.
func offlineLayers(ctx context.Context, rc *runConfig, o *outcome, in *inputs, m *models, det *core.Detector, st *store.Store, ref passResult, tr *benchkit.Trace) error {
	n := float64(len(in.docs))
	perDoc := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }

	noop := func(*corpus.Document, store.DocRef) error { return nil }
	t0 := time.Now()
	if err := st.Scan(noop); err != nil {
		return err
	}
	scan := time.Since(t0)
	t0 = time.Now()
	if err := st.ScanParallel(0, noop); err != nil {
		return err
	}
	scanPar := time.Since(t0)
	o.set("store.scan_ns_per_doc", perDoc(scan))
	o.set("store.scan_mb_per_s", float64(in.textBytes)/1e6/scan.Seconds())
	o.set("store.scan_parallel_ns_per_doc", perDoc(scanPar))
	o.set("store.scan_parallel_speedup", scan.Seconds()/scanPar.Seconds())

	docs := make([]core.StreamDoc, len(in.docs))
	for i := range in.docs {
		docs[i] = core.StreamDoc{ID: in.docs[i].ID, Platform: string(in.docs[i].Platform), Text: in.docs[i].Text}
	}
	stream := func(workers int) (time.Duration, error) {
		ch := make(chan core.StreamDoc, 256) // as in rescorePass
		go func() {
			defer close(ch)
			for i := range docs {
				ch <- docs[i]
			}
		}()
		t0 := time.Now()
		got := 0
		for r := range det.ScoreStream(ctx, ch, core.StreamOptions{Workers: workers, Seed: trainSeed, Ordered: true}) {
			if r.Dead == nil {
				got++
			}
		}
		if got != len(docs) {
			return 0, fmt.Errorf("ScoreStream scored %d of %d in-memory documents", got, len(docs))
		}
		return time.Since(t0), nil
	}
	streamDefault, err := stream(0)
	if err != nil {
		return err
	}
	streamW1, err := stream(1)
	if err != nil {
		return err
	}
	o.set("core.score_stream_ns_per_doc", perDoc(streamDefault))
	o.set("core.score_stream_w1_ns_per_doc", perDoc(streamW1))

	sb, allocs, composed, err := scoreBatchCost(ctx, det, docs, false)
	if err != nil {
		return err
	}
	o.set("core.score_batch_ns_per_doc", perDoc(sb))
	o.set("core.allocs_per_doc", allocs)

	kit, err := newStageKit(m)
	if err != nil {
		return err
	}
	var cost stageCost
	o.attempted += int64(len(docs))
	for i := range docs {
		cth, dox := kit.doc(i, docs[i].Text, false, &cost)
		if it := composed[i].Item; cth != it.CTH || dox != it.Dox {
			o.fail(1, "stage replay of %s scored cth %v dox %v, composed path %v %v", it.ID, cth, dox, it.CTH, it.Dox)
		}
	}
	cost.report(o, false)
	runnerSelf := max(0, sb-cost.scoring())
	o.set("resilience.self_ns_per_doc", perDoc(runnerSelf))

	f, err := os.Create(filepath.Join(rc.tmp, "sink-only.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	t0 = time.Now()
	for i := range ref.lines {
		if err := enc.Encode(&ref.lines[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	sinkD := time.Since(t0)
	o.set("sink.encode_ns_per_doc", perDoc(sinkD))
	o.set("sink.mb_per_s", float64(ref.bytes)/1e6/sinkD.Seconds())

	// The waterfall over the single-threaded pass.
	root := tr.Add("offline.pass", 0, 0, 0, ref.d)
	at := time.Duration(0)
	tr.Add("store.scan", root, 0, at, at+scan)
	at += scan
	sbSpan := tr.Add("core.score_batch", root, 0, at, at+sb)
	s := at
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"tokenize", cost.tokenize}, {"features", cost.features}, {"model", cost.model}} {
		tr.Add(st.name, sbSpan, 0, s, s+st.d)
		s += st.d
	}
	at += sb
	tr.Add("sink.encode", root, 0, at, at+sinkD)
	layers := scan + sb + sinkD
	residual := 100 * float64(ref.d-layers) / float64(ref.d)
	o.set("waterfall.offline_residual_pct", residual)
	o.set("waterfall.double_count_pct", max(0, -residual))
	o.set("offline.pass_w1_ns_per_doc", perDoc(ref.d))
	o.attempted++
	if -residual > doubleCountLimitPct && !rc.smoke { // a smoke run's timings mean nothing
		o.fail(1, "waterfall: scan + score + sink measured alone exceed the single-threaded pass by %.1f%%", -residual)
	}
	return rc.writeTrace(o, "offline-rescore", tr)
}
