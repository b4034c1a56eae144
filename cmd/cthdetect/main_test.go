package main

// End-to-end tests on the built binary.

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"harassrepro/internal/core"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
)

var summaryRe = regexp.MustCompile(`processed=(\d+) succeeded=(\d+) degraded=(\d+) quarantined=(\d+)`)

// TestTokenQuerySyntax pins the -token surface syntax the flag help
// promises: AND on commas, OR on |, -term exclusion, and the error
// cases (pure negation, negation inside an OR group).
func TestTokenQuerySyntax(t *testing.T) {
	for _, spec := range []string{
		"mass",
		"mass,report",
		" mass , report ,",
		"dataset:boards, raid",
		"mass|raid,report",
		"mass,-paste",
	} {
		if q, err := store.ParseQuery(spec); err != nil || q == nil {
			t.Fatalf("ParseQuery(%q) = %v, %v", spec, q, err)
		}
	}
	for _, spec := range []string{"", ",,", "-paste", "mass|-raid"} {
		if _, err := store.ParseQuery(spec); err == nil {
			t.Fatalf("ParseQuery(%q) succeeded, want error", spec)
		}
	}
}

// buildCthdetect builds the command into a temporary directory.
func buildCthdetect(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cthdetect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cthdetect: %v\n%s", err, out)
	}
	return bin
}

// TestMetricsSnapshotReconcilesWithSummary streams lines through the
// binary with -metrics and reconciles the JSON metrics snapshot on
// stderr against the run summary: processed must equal ok + degraded +
// dead-lettered, and the per-stage counters must match the input.
func TestMetricsSnapshotReconcilesWithSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCthdetect(t)

	// 6 well-formed lines plus one oversized line that -max-doc-bytes
	// must dead-letter in the validate stage.
	lines := []string{
		"we should mass report his channel",
		"dropping her address 99 cedar lane and email jane.roe@example.com",
		"anyone up for ranked tonight",
		"post his info everywhere, make him regret it",
		"find her on twitter: janeroe and instagram: jane.roe",
		"meet at the usual place",
		strings.Repeat("a", 300),
	}
	const wantDead = 1
	wantProcessed := len(lines)

	cmd := exec.Command(bin, "-rules-only", "-metrics", "-max-doc-bytes", "128")
	cmd.Stdin = strings.NewReader(strings.Join(lines, "\n") + "\n")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cthdetect failed: %v\nstderr:\n%s", err, stderr.String())
	}

	// Parse the summary line.
	m := summaryRe.FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no summary line in stderr:\n%s", stderr.String())
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	processed, succeeded, degraded, quarantined := atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4])
	if processed != wantProcessed || quarantined != wantDead {
		t.Fatalf("summary processed=%d quarantined=%d, want %d and %d\nstderr:\n%s",
			processed, quarantined, wantProcessed, wantDead, stderr.String())
	}

	// Parse the JSON snapshot after the marker.
	_, rest, ok := strings.Cut(stderr.String(), "metrics snapshot:\n")
	if !ok {
		t.Fatalf("no metrics snapshot marker in stderr:\n%s", stderr.String())
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(rest), &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v\n%s", err, rest)
	}

	cv := func(name string, labels ...obs.Label) int {
		for _, m := range snap.Metrics {
			if m.Name == name && slices.Equal(m.Labels, labels) && m.Value != nil {
				return int(*m.Value)
			}
		}
		return 0
	}
	// The acceptance identity: processed = ok + degraded + dead-lettered.
	ok_, deg, quar := cv("pipeline_items_total", obs.L("status", "ok")),
		cv("pipeline_items_total", obs.L("status", "degraded")),
		cv("pipeline_items_total", obs.L("status", "quarantined"))
	if ok_+deg+quar != processed {
		t.Errorf("items_total ok(%d)+degraded(%d)+quarantined(%d) != processed %d", ok_, deg, quar, processed)
	}
	if quar != quarantined || deg != degraded || ok_ != succeeded-degraded {
		t.Errorf("items_total %d/%d/%d disagrees with summary %d/%d/%d",
			ok_, deg, quar, succeeded-degraded, degraded, quarantined)
	}
	// Every line enters validate; only survivors reach annotate.
	for _, c := range []struct {
		name, stage string
		want        int
	}{
		{"pipeline_stage_attempts_total", "validate", wantProcessed},
		{"pipeline_stage_failures_total", "validate", wantDead},
		{"pipeline_stage_attempts_total", "annotate", wantProcessed - wantDead},
		{"pipeline_stage_failures_total", "annotate", 0},
	} {
		if got := cv(c.name, obs.L("stage", c.stage)); got != c.want {
			t.Errorf("%s{stage=%q} = %d, want %d", c.name, c.stage, got, c.want)
		}
	}
	// The PII extractor scanned exactly the annotated lines, and the
	// corpus's address/email/twitter families matched.
	if got := cv("pii_docs_scanned_total"); got != wantProcessed-wantDead {
		t.Errorf("pii_docs_scanned_total = %d, want %d", got, wantProcessed-wantDead)
	}
	for _, family := range []string{"address", "email", "twitter"} {
		if cv("pii_family_matches_total", obs.L("family", family)) == 0 {
			t.Errorf("pii_family_matches_total{family=%q} = 0, want > 0", family)
		}
	}
	// Stdout reports the quarantined line.
	if !strings.Contains(stdout.String(), "QUARANTINED (validate") {
		t.Errorf("stdout lacks the quarantine report:\n%s", stdout.String())
	}
}

// TestModelScoresIndependentOfWorkers scores long documents, whose
// scores depend on the spans sampled from them, with saved models: three
// runs at -workers 8 must print exactly what one run at -workers 1
// prints.
func TestModelScoresIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains at quick scale, builds and execs the binary")
	}
	p, err := core.Run(core.QuickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	models := t.TempDir()
	if err := p.SaveModels(models); err != nil {
		t.Fatal(err)
	}
	bin := buildCthdetect(t)

	// Chat filler with one word in nine drawn from harassment and dox
	// cues: scores that flip with the spans a document's score samples.
	filler := strings.Fields("anyone up for ranked tonight patch notes are out the new map is fun and we should play more lol this server is dead")
	cues := strings.Fields("mass report his channel post her address 99 cedar lane phone email")
	rng := randx.New(5)
	var lines []string
	for i := 0; i < 60; i++ {
		words := make([]string, 300+rng.Intn(600))
		for j := range words {
			if rng.Bool(0.11) {
				words[j] = randx.Pick(rng, cues)
			} else {
				words[j] = randx.Pick(rng, filler)
			}
		}
		lines = append(lines, strings.Join(words, " "))
	}
	input := strings.Join(lines, "\n") + "\n"
	run := func(workers string) string {
		cmd := exec.Command(bin, "-models", models, "-workers", workers)
		cmd.Stdin = strings.NewReader(input)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("cthdetect -workers %s: %v\n%s", workers, err, stderr.String())
		}
		return stdout.String()
	}
	want := run("1")
	if n := strings.Count(want, "cth="); n != len(lines) {
		t.Fatalf("-workers 1 scored %d of %d lines:\n%s", n, len(lines), want)
	}
	for i := 0; i < 3; i++ {
		if got := run("8"); got != want {
			t.Fatalf("run %d at -workers 8 differs from -workers 1\n--- workers 1 ---\n%s--- workers 8 ---\n%s", i+1, want, got)
		}
	}
}

// TestOverCapLineIsDeadLettered: a stdin line over the 1 MiB line cap
// is one dead letter in its place, naming its line number and length,
// -max-doc-bytes never sees it, and the lines after it are still
// processed, to exit status 0.
func TestOverCapLineIsDeadLettered(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	cmd := exec.Command(buildCthdetect(t), "-rules-only", "-max-doc-bytes", "4096")
	cmd.Stdin = strings.NewReader("we should mass report his channel\n" +
		strings.Repeat("x", 1<<20+10) + "\neveryone go flag her account now\n")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cthdetect: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "seed-query=") || !strings.HasPrefix(lines[2], "seed-query=") ||
		lines[1] != "QUARANTINED (read): line 2 is 1048586 bytes, over the 1048576-byte line limit" {
		t.Errorf("stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "processed=3 succeeded=2 degraded=0 quarantined=1\n") {
		t.Errorf("stderr:\n%s", stderr.String())
	}
}
