package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"harassrepro/internal/obs"
)

// buildHarassd compiles the binary under test.
func buildHarassd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "harassd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building harassd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one live harassd process. stderr may be read once exited
// has delivered.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan error
}

// startHarassd runs the binary on a free port with the given flags and
// returns once /readyz first answers 200.
func startHarassd(t *testing.T, bin string, flags ...string) *daemon {
	t.Helper()
	// The address must be known before the process logs it, so pick a
	// free port here and hand it over.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{addr: l.Addr().String(), exited: make(chan error, 1)}
	l.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", d.addr, "-scale", "quick"}, flags...)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() { d.cmd.Process.Kill() })

	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			t.Fatalf("harassd exited before it was ready: %v\n%s", err, d.stderr.String())
		default:
		}
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d
		}
	}
	d.cmd.Process.Kill()
	<-d.exited // stderr is complete once Wait has returned
	t.Fatalf("harassd never became ready\n%s", d.stderr.String())
	return nil
}

// drain sends SIGTERM and requires exit 0 with the clean-drain line.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("harassd did not exit 0 after SIGTERM: %v\n%s", err, d.stderr.String())
		}
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		<-d.exited
		t.Fatalf("harassd did not exit after SIGTERM\n%s", d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained cleanly") {
		t.Fatalf("no clean drain in stderr:\n%s", d.stderr.String())
	}
}

// post sends one request body and returns the status, headers and body.
func (d *daemon) post(t *testing.T, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading the response: %v", path, err)
	}
	return resp.StatusCode, resp.Header, raw
}

// metrics scrapes /metrics.json.
func (d *daemon) metrics(t *testing.T) obs.Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	return snap
}

// awaitInFlight polls the in-flight gauge until n requests are admitted.
func (d *daemon) awaitInFlight(t *testing.T, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counterValue(d.metrics(t), "serve_inflight_requests") != n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %v requests in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSIGTERMRightAfterReadyDrains signals the service the instant
// /readyz first answers 200. The signal handler used to be installed
// after the listener was up, so a supervisor that stopped the process
// that early killed it without a drain. That window was microseconds
// wide: against the old ordering this test fails only occasionally, and
// it pins the contract (exit 0, "drained cleanly") rather than the race.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	bin := buildHarassd(t)
	for round := 0; round < 3; round++ {
		startHarassd(t, bin).drain(t)
	}
}

// -max-inflight and -queue-depth reach the admission check: with both at
// one, a second request arriving while the first is being scored is shed
// at the door. The first is held open by the size of its document: 4 MB
// of text takes the tokenizer, both classifiers, PII extraction and the
// taxonomy about 0.7 s on two cores.
func TestAdmissionFlagsShedSecondConcurrentRequest(t *testing.T) {
	d := startHarassd(t, buildHarassd(t), "-max-inflight", "1", "-queue-depth", "1")
	held := func(id string) string {
		text := strings.Repeat("keep reporting her account everyone go flag it now ", 80000)
		return fmt.Sprintf(`{"id":%q,"text":%q}`, id, text)
	}

	first := make(chan int, 1)
	go func() {
		code, _, _ := d.post(t, "/v1/score", held("held"))
		first <- code
	}()
	d.awaitInFlight(t, 1)
	code, hdr, body := d.post(t, "/v1/score", `{"id":"shed","text":"arrives second"}`)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("second concurrent request: status %d, Retry-After %q, body %s", code, hdr.Get("Retry-After"), body)
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("the admitted request finished with %d, want 200", code)
	}
	// A batch can never exceed the document bound, whatever -max-batch-docs says.
	code, _, body = d.post(t, "/v1/score/batch", "{\"text\":\"one\"}\n{\"text\":\"two\"}\n")
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "queue depth 1 caps max batch docs 4096") {
		t.Errorf("two-document batch at -queue-depth 1: status %d body %s", code, body)
	}
	if shed := counterValue(d.metrics(t), "serve_shed_total"); shed != 1 {
		t.Errorf("serve_shed_total = %v, want 1", shed)
	}

	// SIGTERM while a request is being scored: the drain waits for it.
	go func() {
		code, _, _ := d.post(t, "/v1/score", held("draining"))
		first <- code
	}()
	d.awaitInFlight(t, 1)
	d.drain(t)
	if code := <-first; code != http.StatusOK {
		t.Errorf("the request in flight at SIGTERM finished with %d, want 200", code)
	}
}

// Removed flags are gone, not ignored: the shard fleet's -shards and
// the fault-injection plan's -chaos.
func TestShardsFlagIsNotDefined(t *testing.T) {
	bin := buildHarassd(t)
	for _, args := range [][]string{{"-shards", "4"}, {"-chaos", "seed=7,panic=0.02"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("harassd %v: %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("harassd %v said:\n%s", args, out)
		}
	}
}

// counterValue returns a counter's (or gauge's) value in snap, or 0
// when it is absent.
func counterValue(snap obs.Snapshot, name string, labels ...obs.Label) float64 {
	for _, m := range snap.Metrics {
		if m.Name == name && slices.Equal(m.Labels, labels) && m.Value != nil {
			return float64(*m.Value)
		}
	}
	return 0
}
