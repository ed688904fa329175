package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"caar/client"
	"caar/internal/faultinject"
	"caar/journal"
)

// supervisor owns the adserver child process: it starts it (optionally with
// crash points armed through the environment), kills it, and watches for the
// self-inflicted deaths the armed crash points produce.
type supervisor struct {
	bin     string
	addr    string
	journal string // the state file: snapshot head plus journal records
	logPath string
	window  int

	cmd    *exec.Cmd
	exited chan error
	logF   *os.File
}

// start launches the child. crashSpec, when non-empty, is exported as
// CAAR_CRASHPOINTS so the named points are armed inside the child.
func (s *supervisor) start(crashSpec string) error {
	logF, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("adsoak: open server log: %w", err)
	}
	cmd := exec.Command(s.bin,
		"-addr", s.addr,
		"-journal", s.journal,
		"-fsync", "always",
		"-window", fmt.Sprint(s.window),
		"-shutdown-grace", "5s",
		"-log-level", "warn",
	)
	cmd.Stdout = logF
	cmd.Stderr = logF
	cmd.Env = append(os.Environ(), faultinject.CrashPointsEnv+"="+crashSpec)
	if err := cmd.Start(); err != nil {
		logF.Close()
		return fmt.Errorf("adsoak: start %s: %w", s.bin, err)
	}
	fmt.Fprintf(logF, "--- adsoak: started pid %d (crashpoints=%q)\n", cmd.Process.Pid, crashSpec)
	s.cmd, s.logF = cmd, logF
	s.exited = make(chan error, 1)
	go func(c *exec.Cmd, ch chan error) { ch <- c.Wait() }(cmd, s.exited)
	return nil
}

// errChildExited reports that the child died while the supervisor was
// waiting for readiness — expected for replay-time crash points.
type errChildExited struct{ wait error }

func (e errChildExited) Error() string {
	return fmt.Sprintf("adsoak: child exited during recovery: %v", e.wait)
}

// waitReady polls the readiness probe until the child reports ready,
// returning the recovery duration and the replay accounting the server
// embedded in its ready response. If the child dies first (an armed
// mid-replay crash point), the error is errChildExited.
func (s *supervisor) waitReady(ctx context.Context, cli *client.Client, timeout time.Duration) (time.Duration, *journal.ReplaySummary, error) {
	begin := time.Now()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-s.exited:
			s.closeLog()
			return 0, nil, errChildExited{wait: err}
		case <-deadline.C:
			return 0, nil, fmt.Errorf("adsoak: server not ready after %v", timeout)
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-tick.C:
			rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			r, err := cli.Readiness(rctx)
			cancel()
			if err == nil && r.Ready {
				return time.Since(begin), r.Replay, nil
			}
		}
	}
}

// waitExit blocks until the child terminates on its own (an armed crash
// point firing) or the timeout elapses.
func (s *supervisor) waitExit(timeout time.Duration) error {
	select {
	case <-s.exited:
		s.closeLog()
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("adsoak: child still running after %v", timeout)
	}
}

// kill SIGKILLs the child — the unannounced power-cut every recovery cycle
// must survive — and reaps it.
func (s *supervisor) kill() error {
	if err := s.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("adsoak: kill: %w", err)
	}
	return s.waitExit(10 * time.Second)
}

// terminate sends SIGTERM (graceful shutdown: drain, flush, snapshot) and
// waits for exit. With a snapshot crash point armed, the child dies inside
// SaveSnapshot instead of completing the shutdown.
func (s *supervisor) terminate(timeout time.Duration) error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("adsoak: sigterm: %w", err)
	}
	return s.waitExit(timeout)
}

func (s *supervisor) closeLog() {
	if s.logF != nil {
		s.logF.Close()
		s.logF = nil
	}
}
