package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMRightAfterReadyDrains signals the service the instant
// /readyz first answers 200. The signal handler used to be installed
// after the listener was up, so a supervisor that stopped the process
// that early killed it without a drain. That window was microseconds
// wide: against the old ordering this test fails only occasionally, and
// it pins the contract (exit 0, "drained cleanly") rather than the race.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := filepath.Join(t.TempDir(), "harassd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building harassd: %v\n%s", err, out)
	}

	for round := 0; round < 3; round++ {
		// The address must be known before the process logs it, so pick a
		// free port here and hand it over.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()

		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr, "-scale", "quick")
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		ready := false
		deadline := time.Now().Add(2 * time.Minute)
		for !ready && time.Now().Before(deadline) {
			select {
			case err := <-exited:
				t.Fatalf("harassd exited before it was ready: %v\n%s", err, stderr.String())
			default:
			}
			resp, err := http.Get(fmt.Sprintf("http://%s/readyz", addr))
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		if !ready {
			cmd.Process.Kill()
			<-exited // stderr is complete once Wait has returned
			t.Fatalf("harassd never became ready\n%s", stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("round %d: harassd did not exit 0 after SIGTERM: %v\n%s", round, err, stderr.String())
			}
		case <-time.After(time.Minute):
			cmd.Process.Kill()
			<-exited
			t.Fatalf("round %d: harassd did not exit after SIGTERM\n%s", round, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained cleanly") {
			t.Fatalf("round %d: no clean drain in stderr:\n%s", round, stderr.String())
		}
	}
}
