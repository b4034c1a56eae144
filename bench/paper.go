package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	harassrepro "harassrepro"
	"harassrepro/bench/benchkit"
	"harassrepro/internal/core"
	"harassrepro/internal/obs"
)

// goldenSeeds are the seeds whose 33 experiment outputs are pinned
// byte for byte in internal/core/testdata/golden.
var goldenSeeds = []uint64{1, 7, 42}

// paperSeeds is how many consecutive seeds a run's jobs cycle through.
// A job's time depends on its seed (corpus and active-learning path
// differ) by ±8%, far more than two runs of one seed differ; a mix of
// seeds makes a run describe the reproduction, not one seed's luck.
const paperSeeds = 4

// runPaper is the reproduction itself: one job is a quick-scale run of
// the whole pipeline (corpora, tokenizer, both active-learning tasks)
// followed by all 33 experiments, through the public API, at seeds
// seed..seed+3 in turn.
func runPaper(ctx context.Context, rc *runConfig) (*outcome, error) {
	o := newOutcome()
	start, err := processStart(setupReps)
	if err != nil {
		return nil, err
	}
	// The job has no set-up of its own: everything it does is the job.
	// What precedes it is the process start (package initialisation).
	o.set("setup_s", start)

	// pinned[seed] is what that seed's outputs must equal: the golden
	// fixture where there is one, otherwise the seed's first iteration.
	pinned := map[uint64]map[string]string{}
	docsAt := map[uint64]int{}
	nSeeds := paperSeeds
	if rc.smoke {
		nSeeds = 1
	}
	for k := 0; k < nSeeds; k++ {
		seed := rc.seed + uint64(k)
		if !slices.Contains(goldenSeeds, seed) {
			continue
		}
		pinned[seed] = map[string]string{}
		dir := filepath.Join(rc.root, "internal", "core", "testdata", "golden", fmt.Sprintf("seed%d", seed))
		for _, id := range harassrepro.ExperimentIDs() {
			b, err := os.ReadFile(filepath.Join(dir, id+".txt"))
			if err != nil {
				return nil, fmt.Errorf("golden fixture: %w", err)
			}
			pinned[seed][id] = string(b)
		}
	}
	o.notes["verification"] = fmt.Sprintf("seeds %d..%d in turn; %d of them compared with internal/core/testdata/golden, the others with their own first iteration", rc.seed, rc.seed+uint64(nSeeds)-1, len(pinned))

	var jobs, runs, exps []time.Duration
	var docsDone int
	cpu0, w0 := selfCPU(), time.Now()
	// At least one pass over the seeds, then whole jobs until time is up.
	for len(jobs) < nSeeds || time.Since(w0) < rc.window(1) {
		seed := rc.seed + uint64(len(jobs)%nSeeds)
		t0 := time.Now()
		study, err := harassrepro.Run(harassrepro.QuickConfig(seed))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		results, err := study.Experiments(ctx, nil, 0)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		jobs, runs, exps = append(jobs, t2.Sub(t0)), append(runs, t1.Sub(t0)), append(exps, t2.Sub(t1))

		if _, counted := docsAt[seed]; !counted {
			for _, ds := range []string{"boards", "blogs", "chat", "gab", "pastes"} {
				for _, d := range study.Documents(ds) {
					docsAt[seed]++
					if seed == rc.seed {
						o.textBytes += int64(len(d.Text))
					}
				}
			}
		}
		docsDone += docsAt[seed]
		want, havePinned := pinned[seed]
		got := map[string]string{}
		for _, r := range results {
			o.attempted++
			got[r.ID] = r.Output
			switch {
			case r.Err != nil:
				o.fail(1, "seed %d experiment %s: %v", seed, r.ID, r.Err)
			case havePinned && r.Output != want[r.ID]:
				o.fail(1, "seed %d experiment %s diverged from its pinned output", seed, r.ID)
			}
		}
		if len(results) != len(harassrepro.ExperimentIDs()) {
			o.fail(1, "%d experiments ran, want %d", len(results), len(harassrepro.ExperimentIDs()))
		}
		if !havePinned {
			pinned[seed] = got
		}
	}
	cpu := selfCPU() - cpu0
	o.docs = docsAt[rc.seed]
	var total time.Duration
	ms := make([]float64, len(jobs))
	for i, d := range jobs {
		total += d
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(ms)
	o.set("docs_per_s", float64(docsDone)/total.Seconds())
	o.set("p50_ms", benchkit.Median(ms))
	o.set("p90_ms", benchkit.Percentile(ms, 90))
	o.set("lat.p99_ms", benchkit.TailPercentile(ms, 99, 10).Value)
	o.set("cpu_us_per_doc", cpu/float64(docsDone)*1e6)
	o.set("core.run_s", medianIn(runs, time.Second))
	o.set("core.experiments_s", medianIn(exps, time.Second))
	o.notes["latency"] = fmt.Sprintf("the operation is one job (Run + 33 experiments) over a quick-scale corpus (%d documents at seed %d): %d jobs, so p90 is among the slowest two or three and no higher percentile has ten samples beyond it", o.docs, rc.seed, len(ms))

	if rc.trace {
		if err := paperLayers(rc, o); err != nil {
			return nil, err
		}
	}
	o.set("peak_rss_mb", selfPeakRSSMB())
	return o, nil
}

// paperLayers reads the per-stage timings the pipeline already
// publishes through core.Options.Metrics, and times each experiment on
// its own to find the slowest.
func paperLayers(rc *runConfig, o *outcome) error {
	tr := benchkit.NewTrace()
	reg := obs.NewRegistry()
	t0 := tr.Since()
	p, err := core.RunWithOptions(core.QuickConfig(rc.seed), core.Options{Metrics: reg})
	if err != nil {
		return err
	}
	run := tr.Add("core.run", 0, 1, t0, tr.Since())
	snap := reg.Snapshot()
	var computes, hits float64
	at := t0
	for _, m := range snap.Metrics {
		var stage string
		for _, l := range m.Labels {
			if l.Name == "stage" {
				stage = l.Value
			}
		}
		switch m.Name {
		case "graph_stage_compute_ns":
			switch stage {
			case core.StageCorpora, core.StageBlogs, core.StageTokenizer, core.StageHasher, core.StageTaskDox, core.StageTaskCTH:
				o.set("graph.stage_s."+stage, float64(m.Sum)/1e9)
				// Stages overlap on the worker pool; the spans record
				// durations, laid end to end and clipped to the run.
				tr.Add("graph."+stage, run, 1, at, at+time.Duration(m.Sum))
				at += time.Duration(m.Sum)
			}
		}
	}
	var slowest time.Duration
	var slowestID string
	e0 := tr.Since()
	for _, id := range harassrepro.ExperimentIDs() {
		s := tr.Since()
		if _, err := p.RunExperiment(id); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		d := tr.Since() - s
		tr.Add("experiment."+id, 0, 2, s, s+d)
		if d > slowest {
			slowest, slowestID = d, id
		}
	}
	o.set("core.slowest_experiment_s", slowest.Seconds())
	o.notes["slowest_experiment"] = fmt.Sprintf("%s (run alone, sharing memoized artifacts with the experiments before it; all 33 sequentially took %.2f s)", slowestID, (tr.Since() - e0).Seconds())
	// Counters are read after the experiments: memoized artifacts are
	// what the experiments hit.
	for _, m := range reg.Snapshot().Metrics {
		if m.Value == nil {
			continue
		}
		switch m.Name {
		case "graph_stage_computes_total":
			computes += float64(*m.Value)
		case "graph_stage_hits_total":
			hits += float64(*m.Value)
		}
	}
	o.set("graph.computes", computes)
	o.set("graph.hits", hits)
	return rc.writeTrace(o, "paper-repro", tr)
}
