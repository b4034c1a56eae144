package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"harassrepro/internal/obs"
)

// server is one harassd subprocess: started on an ephemeral port,
// waited on until ready, and stopped with SIGTERM expecting a clean
// drain. A registered cleanup kills it on every other exit path.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://127.0.0.1:port
	setup time.Duration // exec → first 200 from /readyz (includes start-up training)
	ready time.Time     // when that 200 arrived

	mu      sync.Mutex
	log     []string
	addr    chan string   // receives the address parsed from the log
	logDone chan struct{} // closed when stderr reached EOF
	stopped bool
}

// startHarassd executes harassd with the given extra flags and waits
// until /readyz answers 200.
func startHarassd(rc *runConfig, client *http.Client, extra ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-seed", fmt.Sprint(trainSeed)}, extra...)
	s := &server{
		cmd:     exec.Command(rc.harassd, args...),
		addr:    make(chan string, 1),
		logDone: make(chan struct{}),
	}
	// If the benchmark dies without running its cleanups (SIGKILL),
	// the kernel takes harassd down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting harassd: %w", err)
	}
	addCleanup(s.kill)
	go s.readLog(stderr)

	select {
	case addr := <-s.addr:
		s.base = "http://" + addr
	case <-s.logDone:
		s.kill()
		return nil, fmt.Errorf("harassd exited during start-up:\n%s", s.logText())
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("harassd reported no address within 120 s:\n%s", s.logText())
	}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 120*time.Second {
			s.kill()
			return nil, fmt.Errorf("harassd not ready within 120 s:\n%s", s.logText())
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(t0)
	s.ready = time.Now()
	return s, nil
}

// readLog keeps the server's log and picks the listen address out of
// the "listening on http://ADDR" line.
func (s *server) readLog(r io.Reader) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.log = append(s.log, line)
		s.mu.Unlock()
		if _, addr, ok := strings.Cut(line, "listening on http://"); ok {
			select {
			case s.addr <- strings.TrimSpace(addr):
			default:
			}
		}
	}
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, "\n")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM and requires what an operator would: exit code 0
// and the "drained cleanly" line. Anything else fails the run.
func (s *server) stop() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	// harassd answers /readyz a moment before it installs its signal
	// handler; a SIGTERM in that window kills it outright. A start that
	// is stopped at once (the repeated set-up measurement) waits it out.
	if grace := 100*time.Millisecond - time.Since(s.ready); grace > 0 {
		time.Sleep(grace)
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM to harassd: %w", err)
	}
	waited := make(chan error, 1)
	go func() {
		<-s.logDone // Wait closes the pipe; read it to the end first
		waited <- s.cmd.Wait()
	}()
	select {
	case err := <-waited:
		if err != nil {
			return fmt.Errorf("harassd did not exit 0 after SIGTERM: %v\n%s", err, s.logText())
		}
	case <-time.After(40 * time.Second):
		s.cmd.Process.Kill()
		<-waited
		return errors.New("harassd did not exit within 40 s of SIGTERM; killed")
	}
	if !strings.Contains(s.logText(), "drained cleanly") {
		return fmt.Errorf("harassd exited 0 without reporting a clean drain:\n%s", s.logText())
	}
	return nil
}

// kill is the cleanup of last resort; a no-op after stop.
func (s *server) kill() {
	s.mu.Lock()
	stopped := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if stopped {
		return
	}
	s.cmd.Process.Kill()
	<-s.logDone
	s.cmd.Wait()
}

func (s *server) cpu() float64       { return procCPU(s.pid()) }
func (s *server) peakRSSMB() float64 { return procPeakRSSMB(s.pid()) }

// scrape sums harassd's own counters after a run: load it refused or
// lost shows here even when every client request eventually succeeded.
func (s *server) scrape(client *http.Client, o *outcome) error {
	resp, err := client.Get(s.base + "/metrics.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("/metrics.json: %w", err)
	}
	sums := map[string]float64{}
	for _, m := range snap.Metrics {
		if m.Value == nil {
			continue
		}
		v := float64(*m.Value)
		switch m.Name {
		case "serve_shed_total":
			sums["serve.shed_429"] += v
		case "serve_redispatch_total", "serve_redispatch_failed_total":
			sums["serve.redispatch_docs"] += v
		case "serve_shard_restarts_total":
			sums["serve.shard_restarts"] += v
		case "serve_requests_total":
			if slices.Contains(m.Labels, obs.L("code", "503")) {
				sums["serve.shed_503"] += v
			}
		}
	}
	for _, name := range []string{"serve.shed_429", "serve.shed_503", "serve.redispatch_docs", "serve.shard_restarts"} {
		o.set(name, sums[name])
	}
	return nil
}
