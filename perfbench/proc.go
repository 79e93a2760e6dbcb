package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"positres/internal/serve"
)

// tailBuffer keeps the last few KiB a program wrote to stderr, for
// error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	const keep = 4 << 10
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > keep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-keep:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// runCLI runs one program to completion and returns its wall time and
// peak resident set in MiB.
func runCLI(ctx context.Context, bin string, args ...string) (wall time.Duration, rssMB float64, err error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr tailBuffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	start := time.Now()
	err = cmd.Run()
	wall = time.Since(start)
	if err != nil {
		return wall, 0, fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return wall, rssMB, nil
}

// server is one running positserve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *serve.Client
	stderr tailBuffer
	done   chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after done
}

// startServer launches positserve on a free loopback port and returns
// once it has printed its address and answers /healthz.
func startServer(ctx context.Context, bin, dataDir string, extra ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	s := &server{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start positserve: %w", err)
	}
	lines := bufio.NewScanner(out)
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		if lines.Scan() {
			addr <- strings.TrimPrefix(lines.Text(), "positserve: listening on ")
		}
		for lines.Scan() { // keep draining so the program never blocks on stdout
		}
	}()
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	select {
	case u, ok := <-addr:
		if !ok || !strings.HasPrefix(u, "http://") {
			s.stop()
			return nil, fmt.Errorf("positserve did not report its address: %s", s.stderr.String())
		}
		s.url = u
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, errors.New("positserve did not report its address within 10s")
	}
	s.client = serve.NewClient(s.url, nil)
	for {
		if _, err := s.client.Health(ctx); err == nil {
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("positserve exited: %v: %s", s.err, s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func (s *server) peakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within five seconds, and waits until it has been reaped.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}
