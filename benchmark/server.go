package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"nimble"
)

// buildServer compiles cmd/nimble-serve into the benchmark's output
// directory. It runs before any set-up is timed: go build is not part of
// what a user of the server waits for.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "nimble-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/nimble-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: building nimble-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running nimble-serve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string   // http://127.0.0.1:port
	log    *os.File // the server's stdout and stderr
	exited chan struct{}
}

// startServer launches the binary on a free loopback port and returns once
// /healthz answers 200. started is the moment of exec, so callers can time
// set-up from it. On any failure the process is gone before it returns.
func startServer(e *env, bin, logPath string, models string) (s *server, started time.Time, err error) {
	// Ask the kernel for a free port, then hand it to the server. Another
	// process could take it in between; the health poll then fails and the
	// caller sees the error with the server's log beside it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, time.Time{}, err
	}
	addr := l.Addr().String()
	l.Close()

	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, time.Time{}, err
	}
	// Not CommandContext: cancellation must go through stop's SIGTERM so the
	// server drains; stop is deferred by every caller.
	workers := strconv.Itoa(e.workers())
	cmd := exec.Command(bin, "-addr", addr, "-model", models, "-workers", workers)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+workers)
	cmd.Stderr = logFile
	cmd.Stdout = logFile
	started = time.Now()
	if err := startOn(cmd, e.serverCPUs, e.genCPUs); err != nil {
		logFile.Close()
		return nil, started, err
	}
	s = &server{cmd: cmd, base: "http://" + addr, log: logFile, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we signal ourselves says nothing
		close(s.exited)
	}()
	if err := s.waitHealthy(e.ctx); err != nil {
		s.stop()
		return nil, started, fmt.Errorf("benchmark: nimble-serve on %s (log %s): %w", addr, logPath, err)
	}
	return s, started, nil
}

// startOn starts cmd bound to the processors in on. A child inherits the
// binding of the thread that forks it, so the calling goroutine's thread is
// bound for the duration of the fork and then handed back to the
// processors in back.
func startOn(cmd *exec.Cmd, on, back []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, on); err != nil {
		return err
	}
	err := cmd.Start()
	if backErr := setAffinity(0, back); err == nil {
		err = backErr
	}
	return err
}

func (s *server) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was healthy")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 20s: %v", err)
		}
	}
}

// stop asks the server to drain (SIGTERM), waits for it, and kills it if it
// has not exited in 15 seconds. It returns only when the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// scrapeStats reads GET /stats and returns one model's service counters.
func (s *server) scrapeStats(model string) (nimble.ServiceStats, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return nimble.ServiceStats{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Models map[string][]struct {
			Stats nimble.ServiceStats `json:"stats"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nimble.ServiceStats{}, fmt.Errorf("benchmark: decoding /stats: %w", err)
	}
	versions := body.Models[model]
	if len(versions) == 0 {
		return nimble.ServiceStats{}, fmt.Errorf("benchmark: /stats has no model %q", model)
	}
	return versions[0].Stats, nil
}
