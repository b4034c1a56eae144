package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harassrepro/internal/annotate"
	"harassrepro/internal/durable"
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/tokenize"
)

// tinySaver returns a save func that writes a complete, valid,
// LoadDetector-loadable model directory without training a pipeline:
// a micro WordPiece vocabulary plus two tiny classifiers in a
// 16-bucket feature space. seed perturbs the training labels so
// different "generations" score differently.
func tinySaver(t testing.TB, seed uint64) func(dir string) error {
	t.Helper()
	vocab := tokenize.Train([]string{
		"mass report this channel now",
		"dropping her home address tonight",
		"everyone raid the stream",
		"post his dox in the thread",
	}, tokenize.TrainerConfig{VocabSize: 64})
	examples := make([]model.Example, 0, 8)
	for i := 0; i < 8; i++ {
		examples = append(examples, model.Example{
			X: features.Vector{Indices: []uint32{uint32(i % 16), uint32((i + 3) % 16)}, Values: []float64{1, 1}},
			Y: (uint64(i)+seed)%3 == 0,
		})
	}
	dox, err := model.TrainLogReg(examples, model.LogRegConfig{Buckets: 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cth, err := model.TrainLogReg(examples, model.LogRegConfig{Buckets: 16, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return func(dir string) error {
		if err := vocab.SaveFile(filepath.Join(dir, "vocab.txt")); err != nil {
			return err
		}
		if err := dox.SaveFile(filepath.Join(dir, "dox.model")); err != nil {
			return err
		}
		if err := cth.SaveFile(filepath.Join(dir, "cth.model")); err != nil {
			return err
		}
		meta := `{"version":1,"buckets":16,"dox_text_len":512,"cth_text_len":128,
"dox_thresholds":{"boards":0.9},"cth_thresholds":{"boards":0.8}}`
		return os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644)
	}
}

func mustCommit(t *testing.T, r *Registry, seed uint64) uint64 {
	t.Helper()
	gen, err := r.Commit(Entry{Seed: seed, Source: "test"}, tinySaver(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestRegistryCommitActivateRollback(t *testing.T) {
	dir := t.TempDir()
	r, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}

	g1 := mustCommit(t, r, 1)
	if g1 != 1 {
		t.Fatalf("first generation = %d, want 1", g1)
	}
	if r.Active() != 0 {
		t.Fatalf("commit must not activate: active = %d", r.Active())
	}
	if err := r.Activate(g1); err != nil {
		t.Fatal(err)
	}
	if r.Active() != g1 {
		t.Fatalf("active = %d, want %d", r.Active(), g1)
	}

	g2 := mustCommit(t, r, 2)
	if g2 != 2 {
		t.Fatalf("second generation = %d, want 2", g2)
	}
	if err := r.Activate(g2); err != nil {
		t.Fatal(err)
	}
	if r.Active() != g2 || r.Previous() != g1 {
		t.Fatalf("active/previous = %d/%d, want %d/%d", r.Active(), r.Previous(), g2, g1)
	}

	// Both generations load independently.
	for _, g := range []uint64{g1, g2} {
		d, err := r.Load(g)
		if err != nil {
			t.Fatalf("load generation %d: %v", g, err)
		}
		if d.Buckets() != 16 {
			t.Fatalf("generation %d buckets = %d", g, d.Buckets())
		}
	}

	back, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != g1 || r.Active() != g1 || r.Previous() != g2 {
		t.Fatalf("rollback landed on %d (active %d, previous %d)", back, r.Active(), r.Previous())
	}

	// State survives reopen byte-for-byte.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Active() != g1 || r2.Previous() != g2 {
		t.Fatalf("reopened active/previous = %d/%d", r2.Active(), r2.Previous())
	}
	if len(r2.Entries()) != 2 {
		t.Fatalf("reopened entries = %d", len(r2.Entries()))
	}
	rep := r2.Recovery()
	if len(rep.Quarantined) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("clean reopen reported recovery: %+v", rep)
	}
	if _, _, err := r2.LoadActive(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCommitRejectsBrokenSave(t *testing.T) {
	dir := t.TempDir()
	r, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A save that leaves an incomplete directory must not commit, and
	// the failed generation number is never reused for different bytes
	// (counter only moves on success).
	_, err = r.Commit(Entry{Seed: 9}, func(gdir string) error {
		return os.WriteFile(filepath.Join(gdir, "vocab.txt"), []byte("a\nb\n"), 0o644)
	})
	if err == nil {
		t.Fatal("Commit accepted an incomplete model directory")
	}
	if !strings.Contains(err.Error(), "dox.model") {
		t.Errorf("error does not name the missing artifact: %v", err)
	}
	if got := len(r.Entries()); got != 0 {
		t.Fatalf("failed commit left %d entries", got)
	}
	g, err := r.Commit(Entry{Seed: 10}, tinySaver(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("generation after failed commit = %d, want 1", g)
	}
	// Reopen sees no debris from the failed commit.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r2.Recovery(); len(rep.Orphans) != 0 {
		t.Fatalf("failed commit left orphans: %v", rep.Orphans)
	}
}

func TestRegistryCrashMidPromoteRecovers(t *testing.T) {
	dir := t.TempDir()
	r, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := mustCommit(t, r, 1)
	if err := r.Activate(g1); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash between writing generation 2's files and
	// committing the manifest: the directory exists, the manifest
	// never heard of it.
	orphan := filepath.Join(dir, genDirName(2))
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tinySaver(t, 2)(orphan); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Active() != g1 {
		t.Fatalf("recovered active = %d, want last committed %d", r2.Active(), g1)
	}
	rep := r2.Recovery()
	if len(rep.Orphans) != 1 || rep.Orphans[0] != genDirName(2) {
		t.Fatalf("orphans = %v, want [%s]", rep.Orphans, genDirName(2))
	}
	if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDir, genDirName(2))); err != nil {
		t.Fatalf("orphan not quarantined: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan still in place: %v", err)
	}
	// The identity is not reused with different content silently: the
	// next commit takes generation 2 again only because the manifest
	// counter never advanced, and it validates fresh.
	g2, err := r2.Commit(Entry{Seed: 2}, tinySaver(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if g2 != 2 {
		t.Fatalf("post-recovery generation = %d", g2)
	}
	if _, err := r2.Load(g2); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryOpenRemovesStaleManifestTmp: a crash between writing
// MANIFEST.json.tmp and renaming it leaves the tmp behind; the next Open
// trusts the committed manifest and removes the leftover.
func TestRegistryOpenRemovesStaleManifestTmp(t *testing.T) {
	dir := t.TempDir()
	r, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := mustCommit(t, r, 1)
	if err := r.Activate(g1); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"version":1,"counter":`), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Active() != g1 {
		t.Fatalf("active = %d, want %d", r2.Active(), g1)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale %s survived Open: %v", filepath.Base(tmp), err)
	}
}

func TestRegistryQuarantinesCorruptCommittedGeneration(t *testing.T) {
	dir := t.TempDir()
	r, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := mustCommit(t, r, 1)
	g2 := mustCommit(t, r, 2)
	if err := r.Activate(g1); err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(g2); err != nil {
		t.Fatal(err)
	}

	// Corrupt the active generation's classifier on disk.
	victim := filepath.Join(dir, genDirName(g2), "dox.model")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := r2.Recovery()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != g2 {
		t.Fatalf("quarantined = %v, want [%d]", rep.Quarantined, g2)
	}
	if r2.Active() != g1 || rep.ActiveReset != g1 {
		t.Fatalf("active = %d (reset %d), want fallback to %d", r2.Active(), rep.ActiveReset, g1)
	}
	if _, ok := r2.Entry(g2); ok {
		t.Fatal("corrupt generation still committed")
	}
	if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDir, genDirName(g2))); err != nil {
		t.Fatalf("corrupt generation not quarantined: %v", err)
	}
	// Repair is durable: a second open is clean.
	r3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r3.Recovery(); len(rep.Quarantined) != 0 {
		t.Fatalf("repair not committed: %+v", rep)
	}
	// Generation numbers are never reused after quarantine.
	g3, err := r3.Commit(Entry{Seed: 3}, tinySaver(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if g3 != g2+1 {
		t.Fatalf("post-quarantine generation = %d, want %d", g3, g2+1)
	}
}

func TestManifestRejectsDamage(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"garbage":          `{"version":1,` + "\x00\x01",
		"wrong version":    `{"version":7,"counter":0,"active":0,"previous":0,"entries":[]}`,
		"unknown field":    `{"version":1,"counter":0,"active":0,"previous":0,"entries":[],"extra":1}`,
		"dup generations":  `{"version":1,"counter":2,"active":0,"previous":0,"entries":[{"generation":2,"seed":1},{"generation":2,"seed":1}]}`,
		"unsorted":         `{"version":1,"counter":2,"active":0,"previous":0,"entries":[{"generation":2,"seed":1},{"generation":1,"seed":1}]}`,
		"counter behind":   `{"version":1,"counter":1,"active":0,"previous":0,"entries":[{"generation":2,"seed":1}]}`,
		"active missing":   `{"version":1,"counter":1,"active":3,"previous":0,"entries":[{"generation":1,"seed":1}]}`,
		"previous missing": `{"version":1,"counter":1,"active":1,"previous":3,"entries":[{"generation":1,"seed":1}]}`,
		"active==previous": `{"version":1,"counter":1,"active":1,"previous":1,"entries":[{"generation":1,"seed":1}]}`,
		"generation zero":  `{"version":1,"counter":1,"active":0,"previous":0,"entries":[{"generation":0,"seed":1}]}`,
		"trailing data":    `{"version":1,"counter":0,"active":0,"previous":0,"entries":[]}{"version":1}`,
	}
	for label, data := range cases {
		if _, err := decodeManifest([]byte(data)); err == nil {
			t.Errorf("%s: decodeManifest accepted damage", label)
		}
	}
	// Open over a torn manifest fails loudly rather than serving.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":1,"coun`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a torn manifest")
	}
}

func TestOpenOrCreate(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Active() != 0 || len(r.Entries()) != 0 {
		t.Fatalf("fresh registry not empty: active %d, %d entries", r.Active(), len(r.Entries()))
	}
	g := mustCommit(t, r, 4)
	if err := r.Activate(g); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Active() != g {
		t.Fatalf("reopened active = %d, want %d", r2.Active(), g)
	}
	if _, err := Create(dir); err == nil {
		t.Fatal("Create clobbered an existing registry")
	}
}

func TestRetrainProducesPromotableCandidate(t *testing.T) {
	dir := t.TempDir()
	r, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := mustCommit(t, r, 1)
	if err := r.Activate(g1); err != nil {
		t.Fatal(err)
	}
	base, _, err := r.LoadActive()
	if err != nil {
		t.Fatal(err)
	}

	var fb []Feedback
	texts := []string{
		"everyone mass report his channel and make him pay",
		"dropping her home address tonight stay tuned",
		"this is a perfectly normal gardening discussion",
		"the weather is nice today in the city",
		"post his dox in the thread now",
		"raid the stream at nine everyone join",
	}
	for i := 0; i < 24; i++ {
		fb = append(fb, Feedback{
			ID:       fmt.Sprintf("fb-%03d", i),
			Platform: "boards",
			Text:     texts[i%len(texts)],
			Task:     annotate.TaskCTH,
			Label:    i%len(texts) < 2 || i%len(texts) >= 4,
		})
	}

	cand, res, err := Retrain(base, fb, RetrainConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Task != annotate.TaskCTH {
		t.Fatalf("retrained task = %v, want CTH (dominant in feedback)", res.Task)
	}
	if res.Feedback != len(fb) || res.Labelled == 0 || res.Labelled >= len(fb) {
		t.Fatalf("feedback/labelled = %d/%d, want a training half of the batch", res.Feedback, res.Labelled)
	}
	for plat, th := range res.Thresholds {
		if th <= 0 || th > 1 {
			t.Fatalf("recalibrated threshold for %q out of range: %v", plat, th)
		}
	}
	if cand.Buckets() != base.Buckets() {
		t.Fatalf("candidate feature space %d != base %d", cand.Buckets(), base.Buckets())
	}
	// The retrain is deterministic: same feedback + seed = identical
	// candidate behaviour.
	cand2, res2, err := Retrain(base, fb, RetrainConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Labelled != res.Labelled {
		t.Fatalf("retrain not deterministic: %+v vs %+v", res2, res)
	}
	for _, text := range texts {
		a := cand.ScoreCTH(text)
		b := cand2.ScoreCTH(text)
		if a != b {
			t.Fatalf("candidate scores differ across identical retrains: %v vs %v", a, b)
		}
		if a < 0 || a > 1 {
			t.Fatalf("candidate score out of range: %v", a)
		}
	}

	// The candidate commits and promotes like any trained detector.
	g2, err := r.Commit(Entry{Seed: 42, Source: "retrain"}, cand.Save)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(g2); err != nil {
		t.Fatal(err)
	}
	reloaded, gen, err := r.LoadActive()
	if err != nil {
		t.Fatal(err)
	}
	if gen != g2 {
		t.Fatalf("active = %d, want %d", gen, g2)
	}
	if got, want := reloaded.TaskThresholds(annotate.TaskCTH), cand.TaskThresholds(annotate.TaskCTH); len(got) != len(want) {
		t.Fatalf("reloaded thresholds %v != candidate %v", got, want)
	}
	// The base detector was not mutated by the retrain.
	if base.Buckets() != 16 {
		t.Fatalf("base detector mutated: buckets %d", base.Buckets())
	}
}
